#include "sim/batch_lane_world.h"

#include <algorithm>
#include <cmath>

#include "obs/phase.h"
#include "obs/metrics.h"

namespace hero::sim {

LaneWorldConfig with_real_world_shift(LaneWorldConfig cfg) {
  cfg.lidar.noise_stddev = 0.02;
  cfg.camera.noise_stddev = 0.02;
  cfg.actuation_noise = 0.08;
  cfg.actuation_latency = 1;
  cfg.param_jitter = 0.08;
  return cfg;
}

BatchLaneWorld::BatchLaneWorld(const LaneWorldConfig& cfg, int num_envs)
    : cfg_(cfg),
      track_(cfg.track),
      lidar_(cfg.lidar),
      camera_(cfg.camera),
      E_(num_envs),
      V_(static_cast<int>(cfg.specs.size())) {
  HERO_CHECK_MSG(!cfg_.specs.empty(), "BatchLaneWorld needs at least one vehicle spec");
  HERO_CHECK(cfg_.dt > 0.0 && cfg_.max_steps > 0);
  HERO_CHECK_MSG(E_ > 0, "BatchLaneWorld needs at least one environment");
  for (std::size_t i = 0; i < cfg_.specs.size(); ++i) {
    if (!cfg_.specs[i].scripted) learners_.push_back(static_cast<int>(i));
  }
  reach_ = std::hypot(0.5 * cfg_.vehicle.length, 0.5 * cfg_.vehicle.width);

  const std::size_t total =
      static_cast<std::size_t>(E_) * static_cast<std::size_t>(V_);
  x_.assign(total, 0.0);
  y_.assign(total, 0.0);
  heading_.assign(total, 0.0);
  speed_.assign(total, 0.0);
  yaw_.assign(total, 0.0);
  total_travel_.assign(total, 0.0);
  speed_gain_.assign(total, 1.0);
  heading_drift_.assign(total, 0.0);
  steps_.assign(static_cast<std::size_t>(E_), 0);
  done_.assign(static_cast<std::size_t>(E_), 0);
  had_collision_.assign(static_cast<std::size_t>(E_), 0);

  lat_cap_ = std::max(cfg_.actuation_latency, 1);
  lat_buf_.assign(total * static_cast<std::size_t>(lat_cap_), TwistCmd{});
  lat_head_.assign(total, 0);
  lat_count_.assign(total, 0);

  exec_.assign(total, TwistCmd{});
  hit_.assign(total, 0);
  obs_boxes_.assign(static_cast<std::size_t>(V_), Obb{});
  indices_.resize(static_cast<std::size_t>(E_));
  idx_dirty_.assign(static_cast<std::size_t>(E_), 1);

  // Every env starts in the state a reset with seed 0 produces.
  for (int e = 0; e < E_; ++e) {
    Rng dummy(0);
    reset_env(e, dummy);
  }
}

void BatchLaneWorld::reset_env(int e, Rng& rng) {
  steps_[static_cast<std::size_t>(e)] = 0;
  done_[static_cast<std::size_t>(e)] = 0;
  had_collision_[static_cast<std::size_t>(e)] = 0;
  idx_dirty_[static_cast<std::size_t>(e)] = 1;

  for (int i = 0; i < V_; ++i) {
    const std::size_t idx = flat(e, i);
    const VehicleSpec& sp = cfg_.specs[static_cast<std::size_t>(i)];
    total_travel_[idx] = 0.0;
    lat_head_[idx] = 0;
    lat_count_[idx] = 0;
    speed_gain_[idx] = 1.0;
    heading_drift_[idx] = 0.0;
    hit_[idx] = 0;

    // Draw order: start jitter, then (real-world mode only) the per-episode
    // dynamics perturbation pair.
    x_[idx] = track_.wrap_x(sp.start_x +
                            rng.uniform(-sp.start_x_jitter, sp.start_x_jitter));
    y_[idx] = track_.lane_center(sp.start_lane);
    heading_[idx] = 0.0;
    speed_[idx] = sp.scripted ? sp.scripted_speed : sp.start_speed;
    yaw_[idx] = 0.0;
    if (cfg_.param_jitter > 0.0) {
      speed_gain_[idx] = std::max(0.5, 1.0 + rng.normal(0.0, cfg_.param_jitter));
      heading_drift_[idx] = rng.normal(0.0, cfg_.param_jitter * 0.2);
    }
  }
}

void BatchLaneWorld::step_all(const TwistCmd* cmds, Rng* const* rngs,
                              const std::uint8_t* active, BatchStepResult& out) {
  OBS_PHASE("sim_step");
  const std::size_t n = learners_.size();
  // assign() reuses capacity, so after the first step this is zero-alloc.
  out.reward.assign(static_cast<std::size_t>(E_) * n, 0.0);
  out.travel.assign(x_.size(), 0.0);
  out.collision.assign(static_cast<std::size_t>(E_), 0);
  out.done.assign(static_cast<std::size_t>(E_), 0);

  long stepped = 0;
  for (int e = 0; e < E_; ++e) {
    if (!active[e]) continue;
    HERO_CHECK_MSG(done_[static_cast<std::size_t>(e)] == 0,
                   "step_all() on finished env " << e << "; call reset_env()");
    ++stepped;
  }

  step_resolve(cmds, rngs, active);
  step_integrate(active, out);
  for (int e = 0; e < E_; ++e) {
    if (active[e]) ++steps_[static_cast<std::size_t>(e)];
  }
#if HERO_DEBUG_CHECKS_ENABLED
  // Post-integration invariants, per live env: states stay finite,
  // arc-length stays wrapped into [0, C), and speeds respect the vehicle
  // envelope. An excursion here means the integrator (not the policy)
  // broke — catch it at the step that produced it.
  for (int e = 0; e < E_; ++e) {
    if (!active[e]) continue;
    for (int i = 0; i < V_; ++i) {
      const std::size_t idx = flat(e, i);
      HERO_DCHECK_MSG(std::isfinite(x_[idx]) && std::isfinite(y_[idx]) &&
                          std::isfinite(heading_[idx]) && std::isfinite(speed_[idx]),
                      "BatchLaneWorld env " << e << " vehicle " << i
                                            << " non-finite state");
      HERO_DCHECK_MSG(x_[idx] >= 0.0 && x_[idx] < track_.circumference(),
                      "BatchLaneWorld env " << e << " vehicle " << i
                                            << " arc-length " << x_[idx]
                                            << " outside [0, "
                                            << track_.circumference() << ")");
      HERO_DCHECK_MSG(speed_[idx] >= cfg_.vehicle.min_speed - 1e-9 &&
                          speed_[idx] <= cfg_.vehicle.max_speed + 1e-9,
                      "BatchLaneWorld env " << e << " vehicle " << i << " speed "
                                            << speed_[idx] << " outside envelope");
    }
  }
#endif
  step_collide(active, out);
  step_rewards(active, out);

  if (obs::metrics_enabled()) {
    static obs::Counter& steps = obs::Registry::instance().counter("sim.steps");
    static obs::Counter& collisions =
        obs::Registry::instance().counter("sim.collisions");
    steps.inc(stepped);
    for (int e = 0; e < E_; ++e) {
      if (active[e] && out.collision[static_cast<std::size_t>(e)]) collisions.inc();
    }
  }
}

void BatchLaneWorld::step_resolve(const TwistCmd* cmds, Rng* const* rngs,
                                  const std::uint8_t* active) {
  const std::size_t n = learners_.size();
  for (int e = 0; e < E_; ++e) {
    if (!active[e]) continue;
    Rng& rng = *rngs[e];
    for (std::size_t k = 0; k < n; ++k) {
      const int vi = learners_[k];
      const std::size_t idx = flat(e, vi);
      TwistCmd cmd = cmds[static_cast<std::size_t>(e) * n + k];
      if (cfg_.actuation_latency > 0) {
        // Fixed-capacity push-then-pop-front queue: while filling, hold the
        // pre-step speed with no steering; once full, execute the oldest
        // command and reuse its slot.
        const std::size_t base = idx * static_cast<std::size_t>(lat_cap_);
        if (lat_count_[idx] < lat_cap_) {
          const int slot = (lat_head_[idx] + lat_count_[idx]) % lat_cap_;
          lat_buf_[base + static_cast<std::size_t>(slot)] = cmd;
          ++lat_count_[idx];
          cmd = {speed_[idx], 0.0};
        } else {
          const std::size_t slot = base + static_cast<std::size_t>(lat_head_[idx]);
          const TwistCmd oldest = lat_buf_[slot];
          lat_buf_[slot] = cmd;
          lat_head_[idx] = (lat_head_[idx] + 1) % lat_cap_;
          cmd = oldest;
        }
      }
      // Actuator perturbation: miscalibration always applies, noise draws
      // only in real-world mode (linear, then angular).
      cmd.linear *= speed_gain_[idx];
      cmd.angular += heading_drift_[idx];
      if (cfg_.actuation_noise > 0.0) {
        cmd.linear *= std::max(0.0, 1.0 + rng.normal(0.0, cfg_.actuation_noise));
        cmd.angular += rng.normal(0.0, cfg_.actuation_noise * 0.25);
      }
      exec_[idx] = cmd;
    }
    for (int i = 0; i < V_; ++i) {
      const VehicleSpec& sp = cfg_.specs[static_cast<std::size_t>(i)];
      if (sp.scripted) exec_[flat(e, i)] = {sp.scripted_speed, 0.0};
    }
  }
}

void BatchLaneWorld::step_integrate(const std::uint8_t* active,
                                    BatchStepResult& out) {
  for (int e = 0; e < E_; ++e) {
    if (!active[e]) continue;
    for (int i = 0; i < V_; ++i) {
      const std::size_t idx = flat(e, i);
      const VehicleState s{x_[idx], y_[idx], heading_[idx], speed_[idx], yaw_[idx]};
      const VehicleState ns =
          integrate_unicycle(cfg_.vehicle, s, exec_[idx], cfg_.dt, track_);
      x_[idx] = ns.x;
      y_[idx] = ns.y;
      heading_[idx] = ns.heading;
      speed_[idx] = ns.speed;
      yaw_[idx] = ns.yaw_rate;
      const double dx = track_.signed_dx(s.x, ns.x);
      out.travel[idx] = dx;
      total_travel_[idx] += dx;
    }
  }
}

void BatchLaneWorld::step_collide(const std::uint8_t* active,
                                  BatchStepResult& out) {
  const double near = 2.0 * reach_ + 1e-9;
  const double circ = track_.circumference();
  for (int e = 0; e < E_; ++e) {
    if (!active[e]) continue;
    const std::size_t base = flat(e, 0);
    for (int i = 0; i < V_; ++i) hit_[base + static_cast<std::size_t>(i)] = 0;

    // Broad-phase: sort vehicles by wrapped arc length (the per-env
    // SpatialIndex, built here once and reused by every obs call of this
    // step), then sweep each vehicle's cyclic successors until the ring gap
    // exceeds 2·reach — beyond that no footprint pair can overlap, so the
    // narrow-phase SAT set is identical to testing all pairs.
    SpatialIndex& index = indices_[static_cast<std::size_t>(e)];
    index.build(&x_[base], V_, circ);
    idx_dirty_[static_cast<std::size_t>(e)] = 0;
    const int* ord = index.ids();

    for (int a = 0; a < V_; ++a) {
      const int ia = ord[static_cast<std::size_t>(a)];
      const double xa = x_[base + static_cast<std::size_t>(ia)];
      for (int t = 1; t < V_; ++t) {
        const int b = (a + t) % V_;
        const int ib = ord[static_cast<std::size_t>(b)];
        double gap = x_[base + static_cast<std::size_t>(ib)] - xa;
        if (b < a) gap += circ;  // cyclic successor wrapped past the seam
        if (gap > near) break;   // sorted ⇒ later successors are farther

        // Narrow phase: the SAT pair test, reference = lower id.
        const std::size_t pi = base + static_cast<std::size_t>(std::min(ia, ib));
        const std::size_t pj = base + static_cast<std::size_t>(std::max(ia, ib));
        Obb oa{{x_[pi], y_[pi]}, heading_[pi], 0.5 * cfg_.vehicle.length,
               0.5 * cfg_.vehicle.width};
        Obb ob{{x_[pj], y_[pj]}, heading_[pj], 0.5 * cfg_.vehicle.length,
               0.5 * cfg_.vehicle.width};
        ob.center.x = oa.center.x + track_.signed_dx(oa.center.x, ob.center.x);
        HERO_DCHECK_MSG(obb_overlap(oa, ob) == obb_overlap(ob, oa),
                        "obb_overlap asymmetry in env " << e);
        if (obb_overlap(oa, ob)) {
          hit_[pi] = 1;
          hit_[pj] = 1;
        }
      }
      if (cfg_.offroad_is_collision &&
          !track_.on_road(y_[base + static_cast<std::size_t>(ia)])) {
        hit_[base + static_cast<std::size_t>(ia)] = 1;
      }
    }

    std::uint8_t any = 0;
    for (int i = 0; i < V_; ++i) any |= hit_[base + static_cast<std::size_t>(i)];
    out.collision[static_cast<std::size_t>(e)] = any;
  }
}

void BatchLaneWorld::step_rewards(const std::uint8_t* active,
                                  BatchStepResult& out) {
  const std::size_t n = learners_.size();
  // High-level team reward (paper Sec. IV-B):
  //   r_h^i = α·r_col + (1−α)·r_travel^i
  // with r_travel normalized by the per-step distance at max RL speed.
  const double travel_norm = 0.2 * cfg_.dt;  // 0.2 m/s is the top RL speed bound
  for (int e = 0; e < E_; ++e) {
    if (!active[e]) continue;
    const std::size_t se = static_cast<std::size_t>(e);

    double team_travel = 0.0;
    for (int vi : learners_) team_travel += out.travel[flat(e, vi)];
    team_travel /= static_cast<double>(std::max<std::size_t>(1, n));

    for (std::size_t k = 0; k < n; ++k) {
      const double travel =
          cfg_.shared_travel ? team_travel : out.travel[flat(e, learners_[k])];
      const double r_col =
          out.collision[se] ? cfg_.collision_penalty : 0.0;
      out.reward[se * n + k] =
          cfg_.alpha * r_col + (1.0 - cfg_.alpha) * (travel / travel_norm);
    }

    if (out.collision[se]) had_collision_[se] = 1;
    done_[se] = (out.collision[se] || steps_[se] >= cfg_.max_steps) ? 1 : 0;
    out.done[se] = done_[se];
  }
}

const SpatialIndex& BatchLaneWorld::ensure_index(int e) const {
  SpatialIndex& idx = indices_[static_cast<std::size_t>(e)];
  if (idx_dirty_[static_cast<std::size_t>(e)] || !idx.built()) {
    idx.build(&x_[flat(e, 0)], V_, track_.circumference());
    idx_dirty_[static_cast<std::size_t>(e)] = 0;
  }
  return idx;
}

void BatchLaneWorld::high_level_obs_into(int e, int vehicle, double* out,
                                         Rng* noise_rng) const {
  const std::size_t base = flat(e, 0);
  const std::size_t ego = base + static_cast<std::size_t>(vehicle);
  // Stage the other footprints ego-relative through the wrapped metric,
  // pruning boxes whose nearest point lies beyond lidar range — they cannot
  // lower any beam's minimum, so the scan is bit-identical to unpruned.
  // Squared-distance form of `hypot(dx, dy) ≤ max_range + reach`: the same
  // conservative predicate (1e-9 of slack dwarfs the rounding difference)
  // without the libm call.
  const double thr = cfg_.lidar.max_range + reach_ + 1e-9;
  std::size_t nb = 0;
  // Arc-window query first: |signed_dx| ≤ hypot(dx, dy), so the window of
  // half-width thr is a superset of everything the fine prune keeps.
  const int* ids = nullptr;
  // Rank-order candidates: the scan reduces each beam to a minimum over ray
  // casts, so staging order cannot change the output.
  const int k = ensure_index(e).query_unordered(x_[ego], thr, thr, vehicle, &ids);
  for (int c = 0; c < k; ++c) {
    const std::size_t idx = base + static_cast<std::size_t>(ids[c]);
    const double dx = track_.signed_dx(x_[ego], x_[idx]);
    const double dy = y_[idx] - y_[ego];
    if (dx * dx + dy * dy > thr * thr) continue;
    obs_boxes_[nb] = Obb{{x_[ego] + dx, y_[idx]}, heading_[idx],
                         0.5 * cfg_.vehicle.length, 0.5 * cfg_.vehicle.width};
    ++nb;
  }
  lidar_.scan_into(x_[ego], y_[ego], heading_[ego], obs_boxes_.data(), nb,
                   noise_rng, out);
  const std::size_t beams = static_cast<std::size_t>(cfg_.lidar.num_beams);
  out[beams] = speed_[ego] / cfg_.vehicle.max_speed;
  out[beams + 1] = static_cast<double>(track_.lane_of(y_[ego]));
}

void BatchLaneWorld::low_level_obs_into(int e, int vehicle, int reference_lane,
                                        double* out, Rng* noise_rng) const {
  const std::size_t base = flat(e, 0);
  const std::size_t ego = base + static_cast<std::size_t>(vehicle);
  const VehicleState s{x_[ego], y_[ego], heading_[ego], speed_[ego], yaw_[ego]};
  camera_.features_into(s, cfg_.vehicle.max_speed, &x_[base], &y_[base],
                        &speed_[base], static_cast<std::size_t>(vehicle), track_,
                        reference_lane, noise_rng, ensure_index(e), out);
  out[kLaneCameraDim] = speed_[ego] / cfg_.vehicle.max_speed;
  out[kLaneCameraDim + 1] = static_cast<double>(track_.lane_of(y_[ego]));
}

VehicleState BatchLaneWorld::state(int e, int i) const {
  const std::size_t idx = flat(e, i);
  return VehicleState{x_[idx], y_[idx], heading_[idx], speed_[idx], yaw_[idx]};
}

void BatchLaneWorld::set_state(int e, int i, const VehicleState& s) {
  idx_dirty_[static_cast<std::size_t>(e)] = 1;
  const std::size_t idx = flat(e, i);
  x_[idx] = s.x;
  y_[idx] = s.y;
  heading_[idx] = s.heading;
  speed_[idx] = s.speed;
  yaw_[idx] = s.yaw_rate;
}

double BatchLaneWorld::mean_speed(int e, int i) const {
  const std::size_t se = static_cast<std::size_t>(e);
  if (steps_[se] == 0) return speed_[flat(e, i)];
  return total_travel_[flat(e, i)] / (static_cast<double>(steps_[se]) * cfg_.dt);
}

}  // namespace hero::sim
