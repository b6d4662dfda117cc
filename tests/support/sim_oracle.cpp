#include "support/sim_oracle.h"

#include <algorithm>
#include <cmath>

namespace hero::sim::oracle {

void scan_allpairs(const LidarConfig& cfg, double x, double y, double heading,
                   const Obb* boxes, std::size_t num_boxes, Rng* noise_rng,
                   double* out) {
  const Vec2 origin{x, y};
  for (int b = 0; b < cfg.num_beams; ++b) {
    const double angle =
        heading + 2.0 * M_PI * static_cast<double>(b) / cfg.num_beams;
    const Vec2 dir{std::cos(angle), std::sin(angle)};
    double best = cfg.max_range;
    for (std::size_t i = 0; i < num_boxes; ++i) {
      if (auto t = ray_obb(origin, dir, boxes[i]); t && *t < best) best = *t;
    }
    if (noise_rng && cfg.noise_stddev > 0.0) {
      best = std::clamp(best + noise_rng->normal(0.0, cfg.noise_stddev), 0.0,
                        cfg.max_range);
    }
    out[static_cast<std::size_t>(b)] = best / cfg.max_range;
  }
}

void camera_allpairs(const LaneCameraConfig& cfg, const VehicleState& s,
                     double ego_max_speed, const double* xs, const double* ys,
                     const double* speeds, std::size_t n, std::size_t ego_index,
                     const Track& track, int reference_lane, Rng* noise_rng,
                     double* out) {
  const double w = track.lane_width();
  const double ref_c = track.lane_center(reference_lane);
  const int ego_lane = track.lane_of(s.y);

  // Nearest vehicle ahead in the ego's current lane; ties go to the lowest id.
  double gap = cfg.lead_range;
  double lead_rel_speed = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == ego_index) continue;
    if (track.lane_of(ys[i]) != ego_lane) continue;
    const double d = track.forward_gap(s.x, xs[i]);
    if (d < gap) {
      gap = d;
      lead_rel_speed = speeds[i] - s.speed;
    }
  }

  out[0] = (s.y - ref_c) / w;
  out[1] = std::sin(s.heading);
  out[2] = std::cos(s.heading);
  out[3] = gap / cfg.lead_range;
  out[4] = lead_rel_speed / ego_max_speed;
  const int other_lane = reference_lane == 0 ? std::min(1, track.num_lanes() - 1) : 0;
  out[5] = (track.lane_center(other_lane) - ref_c) / w;

  if (noise_rng && cfg.noise_stddev > 0.0) {
    for (std::size_t i = 0; i < kLaneCameraDim; ++i) {
      out[i] += noise_rng->normal(0.0, cfg.noise_stddev);
    }
  }
}

LaneWorld::LaneWorld(const LaneWorldConfig& cfg) : cfg_(cfg), track_(cfg.track) {
  HERO_CHECK_MSG(!cfg_.specs.empty(), "LaneWorld needs at least one vehicle spec");
  HERO_CHECK(cfg_.dt > 0.0 && cfg_.max_steps > 0);
  vehicles_.resize(cfg_.specs.size());
  for (std::size_t i = 0; i < cfg_.specs.size(); ++i) {
    if (!cfg_.specs[i].scripted) learners_.push_back(static_cast<int>(i));
  }
  Rng dummy(0);
  reset(dummy);
}

void LaneWorld::reset(Rng& rng) {
  steps_ = 0;
  done_ = false;
  had_collision_ = false;
  total_travel_.assign(vehicles_.size(), 0.0);
  latency_queues_.assign(vehicles_.size(), {});
  speed_gain_.assign(vehicles_.size(), 1.0);
  heading_drift_.assign(vehicles_.size(), 0.0);

  for (std::size_t i = 0; i < cfg_.specs.size(); ++i) {
    const VehicleSpec& sp = cfg_.specs[i];
    VehicleState st;
    st.x = track_.wrap_x(sp.start_x +
                         rng.uniform(-sp.start_x_jitter, sp.start_x_jitter));
    st.y = track_.lane_center(sp.start_lane);
    st.heading = 0.0;
    st.speed = sp.scripted ? sp.scripted_speed : sp.start_speed;
    vehicles_[i] = Vehicle(cfg_.vehicle, st);
    if (cfg_.param_jitter > 0.0) {
      speed_gain_[i] = std::max(0.5, 1.0 + rng.normal(0.0, cfg_.param_jitter));
      heading_drift_[i] = rng.normal(0.0, cfg_.param_jitter * 0.2);
    }
  }
}

TwistCmd LaneWorld::perturbed(int vehicle, TwistCmd cmd, Rng& rng) const {
  const std::size_t i = static_cast<std::size_t>(vehicle);
  cmd.linear *= speed_gain_[i];
  cmd.angular += heading_drift_[i];
  if (cfg_.actuation_noise > 0.0) {
    cmd.linear *= std::max(0.0, 1.0 + rng.normal(0.0, cfg_.actuation_noise));
    cmd.angular += rng.normal(0.0, cfg_.actuation_noise * 0.25);
  }
  return cmd;
}

StepResult LaneWorld::step(const std::vector<TwistCmd>& cmds, Rng& rng) {
  HERO_CHECK_MSG(!done_, "step() called on a finished episode; call reset()");
  HERO_CHECK_MSG(cmds.size() == learners_.size(),
                 "expected " << learners_.size() << " commands, got " << cmds.size());

  StepResult out;
  out.travel.assign(vehicles_.size(), 0.0);

  // Resolve the command each vehicle executes this step.
  std::vector<TwistCmd> exec(vehicles_.size());
  for (std::size_t k = 0; k < learners_.size(); ++k) {
    const int vi = learners_[k];
    TwistCmd cmd = cmds[k];
    if (cfg_.actuation_latency > 0) {
      auto& q = latency_queues_[static_cast<std::size_t>(vi)];
      q.push_back(cmd);
      if (static_cast<int>(q.size()) > cfg_.actuation_latency) {
        cmd = q.front();
        q.erase(q.begin());
      } else {
        // Queue still filling: hold the initial speed, no steering.
        cmd = {vehicles_[static_cast<std::size_t>(vi)].state().speed, 0.0};
      }
    }
    exec[static_cast<std::size_t>(vi)] = perturbed(vi, cmd, rng);
  }
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    if (cfg_.specs[i].scripted) exec[i] = {cfg_.specs[i].scripted_speed, 0.0};
  }

  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    const double x0 = vehicles_[i].state().x;
    vehicles_[i].step(exec[i], cfg_.dt, track_);
    const double dx = track_.signed_dx(x0, vehicles_[i].state().x);
    out.travel[i] = dx;
    total_travel_[i] += dx;
  }
  ++steps_;

  detect_collisions(out);
  if (out.collision) had_collision_ = true;
  done_ = out.collision || steps_ >= cfg_.max_steps;
  out.done = done_;

  // r_h^i = α·r_col + (1−α)·r_travel^i, r_travel normalized by the per-step
  // distance at the top RL speed (0.2 m/s).
  const double travel_norm = 0.2 * cfg_.dt;
  double team_travel = 0.0;
  for (int vi : learners_) team_travel += out.travel[static_cast<std::size_t>(vi)];
  team_travel /= std::max<std::size_t>(1, learners_.size());

  out.reward.assign(learners_.size(), 0.0);
  for (std::size_t k = 0; k < learners_.size(); ++k) {
    const double travel = cfg_.shared_travel
                              ? team_travel
                              : out.travel[static_cast<std::size_t>(learners_[k])];
    const double r_col = out.collision ? cfg_.collision_penalty : 0.0;
    out.reward[k] = cfg_.alpha * r_col + (1.0 - cfg_.alpha) * (travel / travel_norm);
  }
  return out;
}

void LaneWorld::detect_collisions(StepResult& out) const {
  std::vector<bool> hit(vehicles_.size(), false);
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    for (std::size_t j = i + 1; j < vehicles_.size(); ++j) {
      Obb a = vehicles_[i].footprint();
      Obb b = vehicles_[j].footprint();
      // Respect the ring topology: place j relative to i.
      b.center.x = a.center.x + track_.signed_dx(a.center.x, b.center.x);
      if (obb_overlap(a, b)) hit[i] = hit[j] = true;
    }
    if (cfg_.offroad_is_collision && !track_.on_road(vehicles_[i].state().y)) {
      hit[i] = true;
    }
  }
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    if (hit[i]) out.collided.push_back(static_cast<int>(i));
  }
  out.collision = !out.collided.empty();
}

std::vector<double> LaneWorld::high_level_obs(int vehicle, Rng* noise_rng) const {
  std::vector<double> obs(high_level_obs_dim());
  high_level_obs_into(vehicle, obs.data(), noise_rng);
  return obs;
}

std::size_t LaneWorld::high_level_obs_dim() const {
  return static_cast<std::size_t>(cfg_.lidar.num_beams) + 2;
}

void LaneWorld::high_level_obs_into(int vehicle, double* out,
                                    Rng* noise_rng) const {
  const std::size_t ei = static_cast<std::size_t>(vehicle);
  const VehicleState& ego = vehicles_[ei].state();
  // Every other footprint, re-centred ego-relative through the wrapped metric.
  std::vector<Obb> boxes;
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    if (i == ei) continue;
    Obb box = vehicles_[i].footprint();
    box.center.x = ego.x + track_.signed_dx(ego.x, box.center.x);
    boxes.push_back(box);
  }
  scan_allpairs(cfg_.lidar, ego.x, ego.y, ego.heading, boxes.data(), boxes.size(),
                noise_rng, out);
  const std::size_t beams = static_cast<std::size_t>(cfg_.lidar.num_beams);
  out[beams] = ego.speed / cfg_.vehicle.max_speed;
  out[beams + 1] = static_cast<double>(lane(vehicle));
}

std::vector<double> LaneWorld::low_level_obs(int vehicle, int reference_lane,
                                             Rng* noise_rng) const {
  std::vector<double> obs(low_level_obs_dim());
  low_level_obs_into(vehicle, reference_lane, obs.data(), noise_rng);
  return obs;
}

std::size_t LaneWorld::low_level_obs_dim() const { return kLaneCameraDim + 2; }

void LaneWorld::low_level_obs_into(int vehicle, int reference_lane, double* out,
                                   Rng* noise_rng) const {
  std::vector<double> xs, ys, speeds;
  for (const Vehicle& v : vehicles_) {
    xs.push_back(v.state().x);
    ys.push_back(v.state().y);
    speeds.push_back(v.state().speed);
  }
  const VehicleState& s = vehicles_[static_cast<std::size_t>(vehicle)].state();
  camera_allpairs(cfg_.camera, s, cfg_.vehicle.max_speed, xs.data(), ys.data(),
                  speeds.data(), vehicles_.size(), static_cast<std::size_t>(vehicle),
                  track_, reference_lane, noise_rng, out);
  out[kLaneCameraDim] = s.speed / cfg_.vehicle.max_speed;
  out[kLaneCameraDim + 1] = static_cast<double>(lane(vehicle));
}

double LaneWorld::mean_speed(int i) const {
  if (steps_ == 0) return vehicles_[static_cast<std::size_t>(i)].state().speed;
  return total_travel_[static_cast<std::size_t>(i)] /
         (static_cast<double>(steps_) * cfg_.dt);
}

}  // namespace hero::sim::oracle
