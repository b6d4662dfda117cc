// One HERO agent: the per-vehicle composition of the high-level actor–critic
// and the opponent model (Fig. 1 of the paper — each agent maintains a
// cooperation layer and a control layer; the skill bank itself is shared and
// lives in HeroTrainer).
//
// The agent holds networks and learns; it does not act. Option state lives
// in a HeroSession and every decision — termination, selection, skill —
// goes through HeroActEngine (hero/act_engine.h).
#pragma once

#include <memory>

#include "hero/high_level.h"

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
            const OpponentModelConfig& opponent, Rng& rng);

  // One gradient step on the high-level networks and the opponent models.
  AgentUpdateStats update(Rng& rng);

  HighLevelAgent& high_level() { return *high_; }
  OpponentModel& opponents() { return *opponents_; }

 private:
  std::unique_ptr<HighLevelAgent> high_;
  std::unique_ptr<OpponentModel> opponents_;
};

}  // namespace hero::core
