#include "support/hero_oracle.h"

#include <algorithm>

namespace hero::core::oracle {

std::vector<sim::TwistCmd> GreedyHero::act(const sim::LaneWorld& world) {
  const HeroConfig& cfg = model_.config();
  const int n = world.num_learners();
  exec_.resize(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const int vi = world.learners()[static_cast<std::size_t>(k)];
    OptionExecution& exec = exec_[static_cast<std::size_t>(k)];
    if (started_ && !option_terminated(exec, world, vi, cfg.skill.termination)) {
      continue;
    }
    HeroAgent& agent = model_.agent(k);
    const std::vector<double> obs = world.high_level_obs(vi);
    std::vector<double> block(agent.opponents().feature_dim(), 1.0 / kNumOptions);
    if (cfg.high.use_opponent_model && agent.opponents().num_opponents() > 0) {
      agent.opponents().predict_all_into(obs, block.data());
    }
    const std::vector<double> probs = agent.high_level().option_probs(obs, block);
    exec = OptionExecution{};
    exec.option = option_from_index(
        static_cast<int>(std::max_element(probs.begin(), probs.end()) - probs.begin()));
    exec.target_lane = exec.option == Option::kLaneChange
                           ? world.track().num_lanes() - 1 - world.lane(vi)
                           : world.lane(vi);
    exec.hold_speed = world.state(vi).speed;
  }
  started_ = true;

  std::vector<sim::TwistCmd> cmds;
  Rng unused(0);  // deterministic skills draw nothing
  SkillBank& skills = model_.skills();
  for (int k = 0; k < n; ++k) {
    const int vi = world.learners()[static_cast<std::size_t>(k)];
    OptionExecution& exec = exec_[static_cast<std::size_t>(k)];
    const std::vector<double> action =
        skills.policy_action(exec.option, skills.skill_obs(exec, world, vi), unused,
                             /*deterministic=*/true);
    cmds.push_back(skills.to_twist(exec, world, vi, action));
    ++exec.steps;  // one world step follows each act()
  }
  return cmds;
}

}  // namespace hero::core::oracle
