// One HERO agent: the per-vehicle composition of the high-level actor–critic,
// the opponent model, and the option being executed (Fig. 1 of the paper —
// each agent maintains a cooperation layer and a control layer; the skill
// bank itself is shared and lives in HeroTrainer).
//
// This is the scalar act path that evaluation drives through
// HeroTrainer::act. Stage-2 training collects through BatchedRollout, which
// keeps the semi-MDP transitions and opponent labels per lane.
#pragma once

#include <memory>

#include "hero/high_level.h"
#include "hero/skills.h"

namespace hero::core {

// What one HeroAgent::update() did, for telemetry: the high-level
// actor–critic stats plus the opponent-model training signal.
struct AgentUpdateStats {
  HighLevelUpdateStats high;
  double opponent_loss = 0.0;  // mean loss over opponents that stepped
  int opponent_updates = 0;    // predictors past their min-samples threshold
};

class HeroAgent {
 public:
  HeroAgent(std::size_t hl_obs_dim, int num_opponents, const HighLevelConfig& high,
            const OpponentModelConfig& opponent, const TerminationConfig& term,
            Rng& rng);

  // Discards any in-flight option state (start of a fresh episode).
  void reset_episode();

  // Selects the initial option of an episode.
  void select_initial(const sim::LaneWorld& world, int vehicle, Rng& rng, bool explore);

  // If β_o fires, selects the next option.
  void maybe_reselect(const sim::LaneWorld& world, int vehicle, Rng& rng, bool explore);

  // One gradient step on the high-level networks and the opponent models.
  AgentUpdateStats update(Rng& rng);

  const OptionExecution& execution() const { return exec_; }
  OptionExecution& execution() { return exec_; }
  HighLevelAgent& high_level() { return *high_; }
  OpponentModel& opponents() { return *opponents_; }
  const TerminationConfig& termination() const { return term_; }

 private:
  // The ô^{-i} block the actor conditions on: the opponent models'
  // prediction, or the uniform prior when opponent modeling is off.
  const std::vector<double>& opp_block(const std::vector<double>& obs);
  void select(const sim::LaneWorld& world, int vehicle, Rng& rng, bool explore);

  HighLevelConfig high_cfg_;
  TerminationConfig term_;
  std::unique_ptr<HighLevelAgent> high_;
  std::unique_ptr<OpponentModel> opponents_;
  OptionExecution exec_;
  std::vector<double> opp_block_;  // scratch for opp_block()
};

}  // namespace hero::core
