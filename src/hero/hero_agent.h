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
#include <vector>

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

  // One update round: a gradient step on each opponent predictor past its
  // min-samples threshold, then on the high-level critic and actor once
  // past warm-up. It is draw() then apply().
  AgentUpdateStats update(Rng& rng);

  // Appends one round's replay indices to `out` in update()'s draw order:
  // opponent slots j = 0..n−2 past min_samples, then the high-level batch
  // past warm-up — round_indices() of them.
  void draw(Rng& rng, std::vector<std::size_t>& out) const;
  // The round's gradient steps over indices draw() laid out since the last
  // store or observe. Reads and writes nothing outside this agent, so
  // different agents' applies can run on different threads.
  AgentUpdateStats apply(const std::size_t* idx);
  // How many indices one round draws; constant between merges.
  std::size_t round_indices() const;

  HighLevelAgent& high_level() { return *high_; }
  OpponentModel& opponents() { return *opponents_; }

 private:
  std::unique_ptr<HighLevelAgent> high_;
  std::unique_ptr<OpponentModel> opponents_;
  std::vector<std::size_t> drawn_;  // update()'s indices
};

}  // namespace hero::core
