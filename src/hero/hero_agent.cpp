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
  drawn_.clear();
  {
    OBS_PHASE("replay");
    draw(rng, drawn_);
  }
  return apply(drawn_.data());
}

void HeroAgent::draw(Rng& rng, std::vector<std::size_t>& out) const {
  for (int j = 0; j < opponents_->num_opponents(); ++j) opponents_->draw(j, rng, out);
  high_->draw(rng, out);
}

AgentUpdateStats HeroAgent::apply(const std::size_t* idx) {
  OBS_PHASE("update");
  AgentUpdateStats stats;
  {
    OBS_PHASE("opponent_update");
    for (int j = 0; j < opponents_->num_opponents(); ++j) {
      if (!opponents_->ready(j)) continue;
      stats.opponent_loss += opponents_->apply(j, idx);
      idx += opponents_->batch();
      ++stats.opponent_updates;
    }
    if (stats.opponent_updates > 0) stats.opponent_loss /= stats.opponent_updates;
  }
  if (high_->ready()) stats.high = high_->apply(*opponents_, idx);
  return stats;
}

std::size_t HeroAgent::round_indices() const {
  std::size_t n = high_->ready() ? high_->batch() : 0;
  for (int j = 0; j < opponents_->num_opponents(); ++j) {
    if (opponents_->ready(j)) n += opponents_->batch();
  }
  return n;
}

}  // namespace hero::core
