// JSON perf-trajectory reporter.
//
// Times the NN hot-path operations (op level) and short training slices of
// HERO plus every baseline (steps/sec), then writes two machine-readable
// snapshots:
//
//   BENCH_nn.json    — op-level numbers (ns/iter), google-benchmark-style
//   BENCH_train.json — environment-steps-per-second per training method
//
// Every perf PR re-runs `tools/run_benchmarks.sh` and commits the refreshed
// snapshots, so the repo carries its own performance trajectory.
//
// Single-core container caveat: CI and the reference container expose one
// core, so every number here — including the BM_BatchStep/E* and
// BM_BatchedRollout/E* batch-first entries — measures single-thread
// throughput. Batching wins come from amortized forward passes and update
// cadence (docs/BATCHING.md), not from parallel hardware; the baselines'
// "/wN" worker variants likewise record dispatch overhead, not speedup.
//
// Run:  ./bench_json [--nn-out F] [--train-out F] [--min-time SECONDS]
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "algos/attention_critic.h"
#include "algos/coma.h"
#include "algos/dqn.h"
#include "algos/maac.h"
#include "algos/maddpg.h"
#include "algos/sac.h"
#include "common/flags.h"
#include "hero/hero_trainer.h"
#include "nn/losses.h"
#include "nn/mlp.h"
#include "obs/phase.h"
#include "sim/batch_lane_world.h"
#include "sim/lane_world.h"
#include "sim/scenario.h"
#include "support/sim_oracle.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct BenchResult {
  std::string name;
  double ns_per_iter = 0.0;
  long iterations = 0;
};

// Adaptive timing loop: grows the iteration count until the measured wall
// time exceeds `min_seconds`, then reports ns per iteration.
template <class F>
BenchResult time_case(const std::string& name, double min_seconds, F&& fn) {
  fn();  // warm caches, settle lazily-sized workspaces
  long iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (long i = 0; i < iters; ++i) fn();
    const double secs = seconds_since(t0);
    if (secs >= min_seconds || iters >= (1L << 30)) {
      BenchResult r;
      r.name = name;
      r.ns_per_iter = secs * 1e9 / static_cast<double>(iters);
      r.iterations = iters;
      std::fprintf(stderr, "  %-34s %12.1f ns/iter  (%ld iters)\n", name.c_str(),
                   r.ns_per_iter, iters);
      return r;
    }
    const double grow = secs > 0.0 ? std::min(10.0, 1.3 * min_seconds / secs) : 10.0;
    iters = static_cast<long>(static_cast<double>(iters) * std::max(2.0, grow));
  }
}

void write_json(const std::string& path, const std::string& kind,
                const std::vector<std::pair<std::string, double>>& entries,
                const std::string& unit, const std::vector<long>& iters) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_json: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  f << "{\n  \"kind\": \"" << kind << "\",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    f << "    {\"name\": \"" << entries[i].first << "\", \"" << unit
      << "\": " << entries[i].second;
    if (i < iters.size()) f << ", \"iterations\": " << iters[i];
    f << "}" << (i + 1 == entries.size() ? "" : ",") << "\n";
  }
  f << "  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

// ------------------------------ op-level cases ------------------------------

std::vector<BenchResult> run_nn_cases(double min_time) {
  using namespace hero;
  std::vector<BenchResult> out;

  // The paper's workhorse shape: obs 26 → 32 → 32 → 25 actions.
  for (std::size_t batch : {std::size_t{1}, std::size_t{128}, std::size_t{1024}}) {
    Rng rng(1);
    nn::Mlp net(26, {32, 32}, 25, rng);
    nn::Matrix x = nn::Matrix::xavier(batch, 26, rng);
    out.push_back(time_case("BM_MlpForward/" + std::to_string(batch), min_time,
                            [&] { net.forward(x); }));
  }

  for (std::size_t batch : {std::size_t{128}, std::size_t{1024}}) {
    Rng rng(1);
    nn::Mlp net(26, {32, 32}, 25, rng);
    nn::Matrix x = nn::Matrix::xavier(batch, 26, rng);
    nn::Matrix target(batch, 25, 0.1);
    out.push_back(
        time_case("BM_MlpForwardBackward/" + std::to_string(batch), min_time, [&] {
          auto loss = nn::mse_loss(net.forward(x), target);
          net.zero_grad();
          net.backward(loss.grad);
        }));
  }

  {
    // Scope cost (obs/phase.h). "off" is what every uninstrumented run pays
    // at each OBS_PHASE site — one relaxed load of the sink word, asserted
    // to stay in the noise by tools/run_benchmarks.sh. "on" feeds the phase
    // tree alone: two clock reads and two relaxed atomic adds.
    out.push_back(time_case("BM_PhaseScope/off", min_time, [&] {
      OBS_PHASE("bench_phase");
    }));
    obs::set_phases_enabled(true);
    out.push_back(time_case("BM_PhaseScope/on", min_time, [&] {
      OBS_PHASE("bench_phase");
    }));
    obs::set_phases_enabled(false);
    obs::PhaseRegistry::instance().reset();
  }

  {
    // A single Linear layer (hidden-free Mlp) at batch 1024: isolates the
    // transpose-free backward kernels from activation costs.
    Rng rng(1);
    nn::Mlp lin(26, {}, 32, rng);
    nn::Matrix x = nn::Matrix::xavier(1024, 26, rng);
    nn::Matrix target(1024, 32, 0.1);
    out.push_back(time_case("BM_LinearBackward/1024", min_time, [&] {
      auto loss = nn::mse_loss(lin.forward(x), target);
      lin.zero_grad();
      lin.backward(loss.grad);
    }));
  }

  {
    Rng rng(1);
    algos::AttentionCritic critic(26, 25, 32, {32, 32}, rng);
    const std::size_t B = 128, m = 2;
    nn::Matrix own = nn::Matrix::xavier(B, 26, rng);
    nn::Matrix others(m * B, 26 + 25);
    for (std::size_t r = 0; r < m * B; ++r) {
      for (std::size_t c = 0; c < 26; ++c) others(r, c) = rng.normal(0, 0.5);
      others(r, 26 + rng.index(25)) = 1.0;
    }
    nn::Matrix dq(B, 25, 0.01);
    out.push_back(time_case("BM_AttentionCriticForwardBackward", min_time, [&] {
      auto pass = critic.forward(own, others);
      critic.zero_grad();
      critic.backward(pass, dq);
    }));
  }

  {
    // The stage-2 cooperation layer: one actor+critic+opponent-conditioned
    // gradient step at the default batch (the per-update cost the obs layer
    // must not regress).
    Rng rng(1);
    core::HighLevelConfig cfg;
    cfg.warmup_transitions = 1;
    const std::size_t obs_dim = 11;
    const int opp = 2;
    core::HighLevelAgent agent(obs_dim, opp, cfg, rng);
    core::OpponentModel opponents(obs_dim, opp, core::OpponentModelConfig{}, rng);
    std::vector<double> obs(obs_dim, 0.1);
    for (int i = 0; i < 512; ++i) {
      obs[0] = 0.01 * (i % 100);
      agent.store({obs,
                   std::vector<double>(static_cast<std::size_t>(opp) * core::kNumOptions,
                                       1.0 / core::kNumOptions),
                   i % core::kNumOptions, 0.5, 0.9, obs, i % 10 == 0});
      opponents.observe(i % opp, obs, core::option_from_index(i % core::kNumOptions));
    }
    out.push_back(time_case("BM_HighLevelUpdate", min_time,
                            [&] { agent.update(opponents, rng); }));
  }

  for (std::size_t batch : {std::size_t{128}, std::size_t{1024}}) {
    Rng rng(1);
    algos::SacConfig cfg;
    cfg.batch = batch;
    cfg.warmup_steps = 1;
    algos::SacAgent agent(8, {0.04, -0.1}, {0.2, 0.1}, cfg, rng);
    for (int i = 0; i < 2000; ++i) {
      agent.observe(std::vector<double>(8, 0.1), {0.1, 0.0}, 0.5,
                    std::vector<double>(8, 0.2), false, rng);
    }
    const std::string name =
        batch == 128 ? "BM_SacUpdate" : "BM_SacUpdate/" + std::to_string(batch);
    out.push_back(time_case(name, min_time, [&] { agent.update(rng); }));
  }

  return out;
}

// ------------------------- training-slice cases -----------------------------

struct TrainSlice {
  std::string name;
  double steps_per_sec = 0.0;
  long steps = 0;
};

template <class TrainFn>
TrainSlice time_train(const std::string& name, TrainFn&& fn) {
  TrainSlice s;
  s.name = name;
  const auto t0 = Clock::now();
  s.steps = fn();
  const double secs = seconds_since(t0);
  s.steps_per_sec = secs > 0.0 ? static_cast<double>(s.steps) / secs : 0.0;
  std::fprintf(stderr, "  %-10s %10.1f env steps/sec  (%ld steps)\n", name.c_str(),
               s.steps_per_sec, s.steps);
  return s;
}

// One pass over the trainers at a fixed worker count. Names carry a "/wN"
// suffix for N > 1 so the single-worker entries keep their historical names
// (and their seed baselines). On a single-core host the multi-worker numbers
// measure dispatch overhead, not speedup — the snapshot records what the
// hardware actually delivered (docs/PARALLELISM.md). HERO runs only at one
// worker: num_workers sizes its stage-1 pool and never changes stage 2.
void run_train_cases(int episodes, int workers, std::vector<TrainSlice>& out) {
  using namespace hero;
  const sim::Scenario scenario = sim::cooperative_lane_change();
  const std::string suffix = workers > 1 ? "/w" + std::to_string(workers) : "";

  auto step_counter = [](long& steps) {
    return [&steps](int, const rl::EpisodeStats& s) { steps += s.steps; };
  };

  out.push_back(time_train("dqn" + suffix, [&] {
    Rng rng(1);
    algos::DqnConfig cfg;
    cfg.warmup_steps = 64;
    cfg.num_workers = workers;
    algos::IndependentDqnTrainer t(scenario, cfg, rng);
    long steps = 0;
    t.train(episodes, rng, step_counter(steps));
    return steps;
  }));

  out.push_back(time_train("coma" + suffix, [&] {
    Rng rng(1);
    algos::ComaConfig cfg;
    cfg.num_workers = workers;
    algos::ComaTrainer t(scenario, cfg, rng);
    long steps = 0;
    t.train(episodes, rng, step_counter(steps));
    return steps;
  }));

  out.push_back(time_train("maddpg" + suffix, [&] {
    Rng rng(1);
    algos::MaddpgConfig cfg;
    cfg.warmup_steps = 64;
    cfg.num_workers = workers;
    algos::MaddpgTrainer t(scenario, cfg, rng);
    long steps = 0;
    t.train(episodes, rng, step_counter(steps));
    return steps;
  }));

  out.push_back(time_train("maac" + suffix, [&] {
    Rng rng(1);
    algos::MaacConfig cfg;
    cfg.warmup_steps = 64;
    cfg.num_workers = workers;
    algos::MaacTrainer t(scenario, cfg, rng);
    long steps = 0;
    t.train(episodes, rng, step_counter(steps));
    return steps;
  }));

  if (workers > 1) return;
  out.push_back(time_train("hero", [&] {
    Rng rng(1);
    core::HeroConfig cfg;
    cfg.high.warmup_transitions = 16;
    // 16 lockstep envs share each policy/opponent forward and the gradient
    // clock counts batch steps (docs/BATCHING.md).
    cfg.batch_envs = 16;
    core::HeroTrainer t(scenario, cfg, rng);
    t.train_skills(/*episodes_per_skill=*/2, rng);
    long steps = 0;
    t.train(episodes, rng, step_counter(steps));
    return steps;
  }));
}

// Batch-first entries (docs/BATCHING.md), reported as env steps/sec so the
// regression gate compares them with the same higher-is-better polarity as
// the trainer slices. BM_BatchStep isolates the SoA sim (step_all with
// constant keep-lane commands, done envs re-seeded in place); BM_BatchedRollout
// runs one full-width HERO round — selection, skills, and opponent
// predictions batched across E lockstep episodes.
void run_batch_cases(std::vector<TrainSlice>& out) {
  using namespace hero;
  const sim::Scenario scenario = sim::cooperative_lane_change();

  for (int envs : {1, 16, 64, 256}) {
    out.push_back(time_train("BM_BatchStep/E" + std::to_string(envs), [&] {
      sim::BatchLaneWorld world(scenario.config, envs);
      std::vector<Rng> rngs;
      rngs.reserve(static_cast<std::size_t>(envs));
      for (int e = 0; e < envs; ++e) rngs.emplace_back(static_cast<unsigned>(e) + 1);
      std::vector<Rng*> rng_ptrs;
      for (int e = 0; e < envs; ++e) {
        rng_ptrs.push_back(&rngs[static_cast<std::size_t>(e)]);
        world.reset_env(e, rngs[static_cast<std::size_t>(e)]);
      }
      const std::vector<std::uint8_t> active(static_cast<std::size_t>(envs), 1);
      const std::vector<sim::TwistCmd> cmds(
          static_cast<std::size_t>(envs) *
              static_cast<std::size_t>(world.num_learners()),
          sim::TwistCmd{0.12, 0.0});
      sim::BatchStepResult res;
      const long batch_steps = 200000 / envs + 256;
      for (long s = 0; s < batch_steps; ++s) {
        for (int e = 0; e < envs; ++e) {
          if (world.done(e)) world.reset_env(e, rngs[static_cast<std::size_t>(e)]);
        }
        world.step_all(cmds.data(), rng_ptrs.data(), active.data(), res);
      }
      return batch_steps * envs;
    }));
  }

  for (int envs : {16, 64}) {
    out.push_back(
        time_train("BM_BatchedRollout/E" + std::to_string(envs), [&] {
          Rng rng(1);
          core::HeroConfig cfg;
          cfg.high.warmup_transitions = 16;
          cfg.batch_envs = envs;
          core::HeroTrainer t(scenario, cfg, rng);
          t.train_skills(/*episodes_per_skill=*/2, rng);
          long steps = 0;
          t.train(/*episodes=*/envs, rng,
                  [&](int, const rl::EpisodeStats& s) { steps += s.steps; });
          return steps;
        }));
  }
}

// The sensing pass the spatial index replaced, timed as the all-pairs
// baseline of the V128 ratio gate: per learner, every other vehicle through
// the reach prune into the every-beam lidar narrow phase, then the camera's
// lead search over every vehicle. The narrow phase and the camera are the
// test oracle's helpers (tests/support/sim_oracle.h); the reach-pruned
// staging is the production staging minus its index query.
class AllPairsSensing {
 public:
  void run(const hero::sim::BatchLaneWorld& world, double* hl, double* ll) {
    using namespace hero::sim;
    const LaneWorldConfig& cfg = world.config();
    const Track& track = world.track();
    const std::size_t v = static_cast<std::size_t>(world.num_vehicles());
    x_.resize(v);
    y_.resize(v);
    heading_.resize(v);
    speed_.resize(v);
    boxes_.resize(v);
    for (std::size_t i = 0; i < v; ++i) {
      const VehicleState s = world.state(0, static_cast<int>(i));
      x_[i] = s.x;
      y_[i] = s.y;
      heading_[i] = s.heading;
      speed_[i] = s.speed;
    }
    const double half_len = 0.5 * cfg.vehicle.length;
    const double half_wid = 0.5 * cfg.vehicle.width;
    const double thr = cfg.lidar.max_range + std::hypot(half_len, half_wid) + 1e-9;
    const std::size_t beams = static_cast<std::size_t>(cfg.lidar.num_beams);
    for (const int vi : world.learners()) {
      const std::size_t ego = static_cast<std::size_t>(vi);
      const int lane = world.lane(0, vi);
      std::size_t nb = 0;
      for (std::size_t i = 0; i < v; ++i) {
        if (i == ego) continue;
        const double dx = track.signed_dx(x_[ego], x_[i]);
        const double dy = y_[i] - y_[ego];
        if (dx * dx + dy * dy > thr * thr) continue;
        boxes_[nb++] = Obb{{x_[ego] + dx, y_[i]}, heading_[i], half_len, half_wid};
      }
      oracle::scan_allpairs(cfg.lidar, x_[ego], y_[ego], heading_[ego], boxes_.data(),
                            nb, nullptr, hl);
      hl[beams] = speed_[ego] / cfg.vehicle.max_speed;
      hl[beams + 1] = static_cast<double>(lane);
      oracle::camera_allpairs(cfg.camera, world.state(0, vi), cfg.vehicle.max_speed,
                              x_.data(), y_.data(), speed_.data(), v, ego, track, lane,
                              nullptr, ll);
      ll[kLaneCameraDim] = speed_[ego] / cfg.vehicle.max_speed;
      ll[kLaneCameraDim + 1] = static_cast<double>(lane);
    }
  }

 private:
  std::vector<double> x_, y_, heading_, speed_;
  std::vector<hero::sim::Obb> boxes_;
};

// Dense-traffic sensing entries (docs/PERFORMANCE.md, "Spatial neighbor
// index"): one env of the declarative dense scenario at V vehicles, where
// each measured step is a step_all PLUS a full sensing pass — high- and
// low-level obs for every learner, the per-step perception cost a rollout
// actually pays and the part that is O(V²) without the index.
// BM_BatchStep/V128_allpairs re-times V=128 in the same run with
// AllPairsSensing in place of the world's indexed obs calls;
// tools/run_benchmarks.sh asserts the indexed entry is ≥ 4× faster.
void run_dense_cases(const std::string& scenario_path,
                     std::vector<TrainSlice>& out) {
  using namespace hero;

  const auto dense_case = [&](const std::string& name, int vehicles,
                              bool all_pairs, long steps_target) {
    out.push_back(time_train(name, [&] {
      const sim::Scenario sc = sim::load_scenario(scenario_path, vehicles);
      sim::BatchLaneWorld world(sc.config, /*num_envs=*/1);
      Rng rng(1);
      Rng* rng_ptr = &rng;
      world.reset_env(0, rng);
      const std::uint8_t active = 1;
      const std::vector<sim::TwistCmd> cmds(
          static_cast<std::size_t>(world.num_learners()),
          sim::TwistCmd{0.12, 0.0});
      std::vector<double> hl(world.high_level_obs_dim());
      std::vector<double> ll(world.low_level_obs_dim());
      sim::BatchStepResult res;
      AllPairsSensing reference;
      for (long s = 0; s < steps_target; ++s) {
        if (world.done(0)) world.reset_env(0, rng);
        world.step_all(cmds.data(), &rng_ptr, &active, res);
        if (all_pairs) {
          reference.run(world, hl.data(), ll.data());
          continue;
        }
        for (int k = 0; k < world.num_learners(); ++k) {
          const int vi = world.learners()[static_cast<std::size_t>(k)];
          world.high_level_obs_into(0, vi, hl.data());
          world.low_level_obs_into(0, vi, world.lane(0, vi), ll.data());
        }
      }
      return steps_target;
    }));
  };

  dense_case("BM_BatchStep/V64", 64, /*all_pairs=*/false, 3000);
  dense_case("BM_BatchStep/V128", 128, /*all_pairs=*/false, 1500);
  dense_case("BM_BatchStep/V256", 256, /*all_pairs=*/false, 750);
  dense_case("BM_BatchStep/V128_allpairs", 128, /*all_pairs=*/true, 1500);

  // Full HERO batched rollout on the dense scene: 48 learners × 4 lockstep
  // envs through selection, skills and opponent prediction.
  out.push_back(time_train("BM_BatchedRollout/dense64", [&] {
    sim::Scenario sc = sim::load_scenario(scenario_path, /*num_vehicles=*/64);
    Rng rng(1);
    core::HeroConfig cfg;
    cfg.high.warmup_transitions = 16;
    cfg.batch_envs = 4;
    core::HeroTrainer t(sc, cfg, rng);
    t.train_skills(/*episodes_per_skill=*/1, rng);
    long steps = 0;
    t.train(/*episodes=*/4, rng,
            [&](int, const rl::EpisodeStats& s) { steps += s.steps; });
    return steps;
  }));
}

}  // namespace

int main(int argc, char** argv) {
  hero::Flags flags(argc, argv);
  const std::string nn_out = flags.get_string("nn-out", "BENCH_nn.json");
  const std::string train_out = flags.get_string("train-out", "BENCH_train.json");
  const double min_time = flags.get_double("min-time", 0.25);
  const int train_episodes = flags.get_int("train-episodes", 8);
  // Largest worker count for the "/wN" training slices; 1 keeps the run to
  // the historical single-worker set.
  const int max_workers = flags.get_int("max-workers", 8);
  // Declarative config behind the BM_BatchStep/V* density sweep; empty
  // skips the dense entries (a missing file is a hard error — a silently
  // absent entry would make the regression gate vacuous).
  const std::string dense_scenario =
      flags.get_string("dense-scenario", "scenarios/dense_traffic.json");
  flags.check_unknown();

  std::fprintf(stderr, "== op-level benchmarks ==\n");
  auto nn = run_nn_cases(min_time);
  std::vector<std::pair<std::string, double>> nn_entries;
  std::vector<long> nn_iters;
  for (const auto& r : nn) {
    nn_entries.emplace_back(r.name, r.ns_per_iter);
    nn_iters.push_back(r.iterations);
  }
  write_json(nn_out, "nn_ops_ns_per_iter", nn_entries, "real_time_ns", nn_iters);

  if (train_episodes <= 0) {
    // Don't write an all-zeros snapshot — that would read as a catastrophic
    // regression if it ever got committed.
    std::fprintf(stderr, "== training-slice benchmarks skipped (--train-episodes %d) ==\n",
                 train_episodes);
    return 0;
  }
  std::fprintf(stderr, "== training-slice benchmarks (%d episodes each) ==\n",
               train_episodes);
  std::vector<TrainSlice> train;
  for (int w = 1; w <= max_workers; w *= 2) run_train_cases(train_episodes, w, train);
  run_batch_cases(train);
  if (!dense_scenario.empty()) run_dense_cases(dense_scenario, train);
  std::vector<std::pair<std::string, double>> train_entries;
  for (const auto& s : train) train_entries.emplace_back(s.name, s.steps_per_sec);
  write_json(train_out, "train_steps_per_sec", train_entries, "steps_per_sec", {});
  return 0;
}
