#include "hero/hero_agent.h"

#include "obs/phase.h"

namespace hero::core {

HeroAgent::HeroAgent(std::size_t hl_obs_dim, int num_opponents,
                     const HighLevelConfig& high, const OpponentModelConfig& opponent,
                     Rng& rng) {
  high_ = std::make_unique<HighLevelAgent>(hl_obs_dim, num_opponents, high, rng);
  opponents_ = std::make_unique<OpponentModel>(hl_obs_dim, num_opponents, opponent, rng);
}

AgentUpdateStats HeroAgent::update(Rng& rng) {
  OBS_PHASE("update");
  AgentUpdateStats stats;
  {
    OBS_PHASE("opponent_update");
    const auto losses = opponents_->update_all(rng);
    for (std::size_t j = 0; j < losses.size(); ++j) {
      if (!opponents_->ready(static_cast<int>(j))) continue;
      stats.opponent_loss += losses[j];
      ++stats.opponent_updates;
    }
    if (stats.opponent_updates > 0) stats.opponent_loss /= stats.opponent_updates;
  }
  stats.high = high_->update(*opponents_, rng);
  return stats;
}

}  // namespace hero::core
