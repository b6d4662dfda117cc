// The greedy HERO decision rule written out one agent at a time over a live
// LaneWorld, for tests.
//
// Production HERO acts only through core::HeroActEngine: one fused,
// batched pass over an rl::ObsBatch (termination, selection, skills). This
// oracle states the same greedy rule the direct way, per agent and per
// tick: β_o on the agent's held option, on termination the opponent
// models' prediction (predict_all_into, or the uniform prior under the
// ablation), the actor's option_probs and its first argmax, then the frozen
// skill's deterministic action through SkillBank::skill_obs, policy_action
// and to_twist. ServingEquivalence.ServedMatchesInProcessGreedy holds the
// engine — served and through Controller::act — to it bit for bit.
#pragma once

#include <vector>

#include "hero/hero_trainer.h"

namespace hero::core::oracle {

class GreedyHero {
 public:
  // Reads `model`'s networks at every call; `model` must outlive the oracle.
  explicit GreedyHero(HeroTrainer& model) : model_(model) {}

  // Starts an episode: the next act() selects every agent's initial option.
  void begin_episode() { started_ = false; }

  // One command per learner, in world.learners() order.
  std::vector<sim::TwistCmd> act(const sim::LaneWorld& world);

 private:
  HeroTrainer& model_;
  std::vector<OptionExecution> exec_;  // per agent
  bool started_ = false;
};

}  // namespace hero::core::oracle
