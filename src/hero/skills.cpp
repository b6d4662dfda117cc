#include "hero/skills.h"

#include <algorithm>
#include <cmath>

#include "common/sync.h"
#include "nn/serialize.h"
#include "obs/obs.h"
#include "sim/scenario.h"

namespace hero::core {

SkillBank::SkillBank(std::size_t obs_dim, const SkillConfig& cfg, Rng& rng)
    : cfg_(cfg) {
  for (int i = 0; i < kNumOptions; ++i) {
    const Option o = option_from_index(i);
    if (o == Option::kKeepLane) continue;  // keep-lane is not learned
    auto space = option_action_space(o);
    agents_[static_cast<std::size_t>(i)] = std::make_unique<algos::SacAgent>(
        obs_dim, space.lo, space.hi, cfg_.sac, rng);
  }
}

algos::SacAgent& SkillBank::agent(Option o) {
  auto& ptr = agents_[static_cast<std::size_t>(static_cast<int>(o))];
  HERO_CHECK_MSG(ptr != nullptr, "option " << option_name(o) << " has no learned skill");
  return *ptr;
}

std::vector<double> SkillBank::skill_obs(const OptionExecution& exec,
                                         const sim::LaneWorld& world,
                                         int vehicle) const {
  const int ref_lane = exec.option == Option::kLaneChange ? exec.target_lane
                                                          : world.lane(vehicle);
  return world.low_level_obs(vehicle, ref_lane);
}

std::vector<double> SkillBank::policy_action(Option o, const std::vector<double>& obs,
                                             Rng& rng, bool deterministic) {
  if (o == Option::kKeepLane) return {};
  return agent(o).act(obs, rng, deterministic);
}

sim::TwistCmd SkillBank::to_twist(const OptionExecution& exec,
                                  const sim::LaneWorld& world, int vehicle,
                                  const std::vector<double>& action) const {
  const sim::VehicleState st = world.state(vehicle);
  return to_twist_core(exec, world.track(), world.config().dt, st.y, st.heading,
                       action.data(), action.size());
}

sim::TwistCmd SkillBank::to_twist_core(const OptionExecution& exec,
                                       const sim::Track& track, double dt,
                                       double y, double heading,
                                       const double* action,
                                       std::size_t action_n) const {
  if (exec.option == Option::kKeepLane) {
    // Paper Sec. IV-C: keep-lane holds the previous linear speed.
    return {exec.hold_speed, 0.0};
  }
  HERO_CHECK(action_n == 2);
  if (exec.option != Option::kLaneChange) {
    return {action[0], action[1]};  // signed angular command straight through
  }
  // Lane change: the policy commands speed and a steering-rate magnitude;
  // the steering law turns that into a signed rate toward the target lane
  // and straightens out as the lateral error vanishes.
  const double y_err = track.lane_center(exec.target_lane) - y;
  const double theta_des = std::clamp(cfg_.steer_gain * y_err,
                                      -cfg_.max_change_heading,
                                      cfg_.max_change_heading);
  const double w_mag = action[1];
  const double w = std::clamp((theta_des - heading) / dt, -w_mag, w_mag);
  return {action[0], w};
}

std::vector<double> SkillBank::train_skill(
    Option o, sim::LaneWorld& world, int episodes, Rng& rng,
    const std::function<void(int, double)>& hook) {
  HERO_CHECK(has_agent(o));
  HERO_CHECK_MSG(world.num_learners() == 1, "stage-1 training is single-vehicle");
  algos::SacAgent& sac = agent(o);
  const int vehicle = world.learners()[0];
  std::vector<double> curve;
  curve.reserve(static_cast<std::size_t>(episodes));

  for (int ep = 0; ep < episodes; ++ep) {
    OBS_PHASE("skill_episode");
    world.reset(rng);
    // Start-state randomization: lateral offset and heading jitter force the
    // skills to learn recovery, not just straight-line driving.
    sim::VehicleState st = world.state(vehicle);
    st.y += rng.uniform(-0.3, 0.3) * 0.5 * world.track().lane_width();
    st.heading = rng.uniform(-0.2, 0.2);
    world.set_state(vehicle, st);

    OptionExecution exec;
    exec.option = o;
    exec.steps = 0;
    exec.target_lane =
        o == Option::kLaneChange ? 1 - world.lane(vehicle) : world.lane(vehicle);

    double ep_reward = 0.0;
    while (!world.done()) {
      const auto obs = skill_obs(exec, world, vehicle);
      const auto action = policy_action(o, obs, rng, /*deterministic=*/false);
      const auto cmd = to_twist(exec, world, vehicle, action);
      auto result = world.step({cmd}, rng);
      ++exec.steps;

      double r = 0.0;
      bool skill_done = result.done;
      const double travel = result.travel[static_cast<std::size_t>(vehicle)];
      if (o == Option::kLaneChange) {
        const auto outcome = lane_change_outcome(exec, world, vehicle,
                                                 cfg_.termination);
        r = lane_change_reward(outcome, travel, cfg_.reward);
        if (result.collision) r = -cfg_.reward.lane_change_bonus;
        skill_done = skill_done || outcome != LaneChangeOutcome::kInProgress;
      } else {
        // In-lane skills train over the whole episode (the 3-step execution
        // window applies at deployment, not during skill acquisition).
        r = driving_in_lane_reward(world, vehicle, travel, cfg_.reward);
        if (result.collision) r -= cfg_.reward.lane_change_bonus;
      }
      ep_reward += r;
      sac.observe(obs, action, r, skill_obs(exec, world, vehicle), skill_done, rng);
      if (skill_done) break;
    }
    curve.push_back(ep_reward);
    if (obs::metrics_enabled()) {
      auto& reg = obs::Registry::instance();
      reg.counter("hero.stage1.episodes").inc();
      reg.counter("hero.stage1.steps").inc(exec.steps);
    }
    if (obs::telemetry_enabled()) {
      obs::Telemetry::instance().emit(obs::TelemetryEvent("stage1/episode")
                                          .field("skill", option_name(o))
                                          .field("episode", ep)
                                          .field("reward", ep_reward)
                                          .field("steps", exec.steps));
    }
    if (hook) hook(ep, ep_reward);
  }
  return curve;
}

std::map<Option, std::vector<double>> SkillBank::train_all_parallel(
    int episodes_per_skill, std::uint64_t seed, runtime::ThreadPool& pool,
    const std::function<void(Option, int, double)>& hook) {
  // Serializes caller-supplied hook invocations across skill tasks. Local,
  // so HERO_GUARDED_BY cannot name it — the hook std::function is the
  // guarded state by convention.
  Mutex hook_mutex;
  std::array<std::vector<double>, kNumOptions> results;

  // One pool task per learned option. The per-skill RNG stream is derived
  // from (seed, option index) exactly as the historical thread-per-skill
  // implementation did, so curves are bitwise-stable across pool sizes and
  // vs. the legacy code path.
  pool.parallel_for(kNumOptions, [&](std::size_t idx) {
    const int i = static_cast<int>(idx);
    const Option o = option_from_index(i);
    if (!has_agent(o)) return;
    // Task-local environment and RNG stream; the SAC agent for option `o`
    // is only ever touched by the one task training it.
    sim::LaneWorld world(sim::skill_training_world(/*with_leader=*/false));
    Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1)));
    std::function<void(int, double)> task_hook;
    if (hook) {
      task_hook = [&](int ep, double r) {
        MutexLock lock(hook_mutex);
        hook(o, ep, r);
      };
    }
    results[static_cast<std::size_t>(i)] =
        train_skill(o, world, episodes_per_skill, rng, task_hook);
  });

  std::map<Option, std::vector<double>> curves;
  for (int i = 0; i < kNumOptions; ++i) {
    if (!has_agent(option_from_index(i))) continue;
    curves[option_from_index(i)] = std::move(results[static_cast<std::size_t>(i)]);
  }
  return curves;
}

void SkillBank::save(const std::string& dir) const {
  for (int i = 0; i < kNumOptions; ++i) {
    const auto& ptr = agents_[static_cast<std::size_t>(i)];
    if (!ptr) continue;
    const std::string base = dir + "/" + option_name(option_from_index(i));
    nn::save_params_file(ptr->policy().net(), base + "_actor.ckpt");
    nn::save_params_file(ptr->critic1(), base + "_q1.ckpt");
    nn::save_params_file(ptr->critic2(), base + "_q2.ckpt");
  }
}

void SkillBank::load(const std::string& dir) {
  for (int i = 0; i < kNumOptions; ++i) {
    const auto& ptr = agents_[static_cast<std::size_t>(i)];
    if (!ptr) continue;
    const std::string base = dir + "/" + option_name(option_from_index(i));
    nn::load_params_file(ptr->policy().net(), base + "_actor.ckpt");
    nn::load_params_file(ptr->critic1(), base + "_q1.ckpt");
    nn::load_params_file(ptr->critic2(), base + "_q2.ckpt");
  }
}

}  // namespace hero::core
