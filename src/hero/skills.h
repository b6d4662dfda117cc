// The low-level skill bank: one SAC policy per learned option (slow down,
// accelerate, lane change — keep-lane holds the current speed, per paper
// Sec. IV-B), each trained in a single-vehicle world against its intrinsic
// reward (stage 1 of HERO's two-stage training, paper Fig. 2a / Sec. V-C).
//
// The lane-change skill's angular action is a steering-rate magnitude; a
// fixed kinematic steering law resolves its sign/profile toward the target
// lane (the paper's asymmetric positive angular range 0.12:0.25 implies the
// same arrangement — the skill chooses how fast and how aggressively, the
// steering column geometry decides the direction). See DESIGN.md §5.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "algos/sac.h"
#include "hero/options.h"
#include "runtime/thread_pool.h"

namespace hero::core {

struct SkillConfig {
  algos::SacConfig sac;
  TerminationConfig termination;
  IntrinsicRewardConfig reward;
  double steer_gain = 2.5;        // lane-change: θ_des = gain · lateral error
  double max_change_heading = 0.6;  // |θ_des| clamp during a lane change
  int train_episode_steps = 30;   // stage-1 episode length for in-lane skills
};

class SkillBank {
 public:
  SkillBank(std::size_t obs_dim, const SkillConfig& cfg, Rng& rng);

  // Low-level observation for the given execution (reference lane is the
  // lane-change target during a change, else the current lane).
  std::vector<double> skill_obs(const OptionExecution& exec,
                                const sim::LaneWorld& world, int vehicle) const;

  // Raw policy action for the option (empty for keep-lane).
  std::vector<double> policy_action(Option o, const std::vector<double>& obs,
                                    Rng& rng, bool deterministic);

  // Maps (execution, policy action) to the twist command actually sent.
  sim::TwistCmd to_twist(const OptionExecution& exec, const sim::LaneWorld& world,
                         int vehicle, const std::vector<double>& action) const;

  // The pure steering-law core over scalar ego state — what HeroActEngine
  // applies to the ObsBatch's ego scalars. to_twist delegates here, so
  // stage-1 training and deployment share one steering law.
  sim::TwistCmd to_twist_core(const OptionExecution& exec, const sim::Track& track,
                              double dt, double y, double heading,
                              const double* action, std::size_t action_n) const;

  bool has_agent(Option o) const { return o != Option::kKeepLane; }
  algos::SacAgent& agent(Option o);

  // --- stage-1 training ---
  // Trains one skill in its single-vehicle world; returns per-episode
  // intrinsic-reward sums (the Fig. 8 curves). `hook(ep, reward)` optional.
  std::vector<double> train_skill(Option o, sim::LaneWorld& world, int episodes,
                                  Rng& rng,
                                  const std::function<void(int, double)>& hook = {});

  // Parallel stage 1 (paper Sec. V-C: "we create parallel training
  // environments with different intrinsic reward functions"): one pool task
  // per learned skill, each with its own environment and RNG stream (derived
  // deterministically from `seed`, independent of pool size or scheduling).
  // Skills share no mutable state, so the tasks are independent; the
  // optional hook is serialized internally and receives (option, episode,
  // reward). Returns the same curves as running train_skill per option.
  std::map<Option, std::vector<double>> train_all_parallel(
      int episodes_per_skill, std::uint64_t seed, runtime::ThreadPool& pool,
      const std::function<void(Option, int, double)>& hook = {});

  // Checkpointing of all learned skills (directory of herockpt files).
  void save(const std::string& dir) const;
  void load(const std::string& dir);

  const SkillConfig& config() const { return cfg_; }

 private:
  SkillConfig cfg_;
  std::array<std::unique_ptr<algos::SacAgent>, kNumOptions> agents_;
};

}  // namespace hero::core
