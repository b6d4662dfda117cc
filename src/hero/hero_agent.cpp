#include "hero/hero_agent.h"

#include <algorithm>

#include "obs/phase.h"
#include "obs/trace.h"

namespace hero::core {

HeroAgent::HeroAgent(std::size_t hl_obs_dim, int num_opponents,
                     const HighLevelConfig& high, const OpponentModelConfig& opponent,
                     const TerminationConfig& term, Rng& rng)
    : high_cfg_(high), term_(term) {
  high_ = std::make_unique<HighLevelAgent>(hl_obs_dim, num_opponents, high, rng);
  opponents_ = std::make_unique<OpponentModel>(hl_obs_dim, num_opponents, opponent, rng);
}

void HeroAgent::reset_episode() { exec_ = OptionExecution{}; }

const std::vector<double>& HeroAgent::opp_block(const std::vector<double>& obs) {
  opp_block_.resize(opponents_->feature_dim());
  if (!high_cfg_.use_opponent_model || opponents_->num_opponents() == 0) {
    std::fill(opp_block_.begin(), opp_block_.end(), 1.0 / kNumOptions);
  } else {
    opponents_->predict_all_into(obs, opp_block_.data());
  }
  return opp_block_;
}

void HeroAgent::select(const sim::LaneWorld& world, int vehicle, Rng& rng,
                       bool explore) {
  const auto obs = world.high_level_obs(vehicle);
  const int opt = high_->select_option(obs, opp_block(obs), rng, explore);

  exec_ = OptionExecution{};
  exec_.option = option_from_index(opt);
  if (exec_.option == Option::kLaneChange) {
    exec_.target_lane = world.track().num_lanes() - 1 - world.lane(vehicle);
  } else {
    exec_.target_lane = world.lane(vehicle);
  }
  exec_.hold_speed = world.state(vehicle).speed;
}

void HeroAgent::select_initial(const sim::LaneWorld& world, int vehicle, Rng& rng,
                               bool explore) {
  reset_episode();
  select(world, vehicle, rng, explore);
}

void HeroAgent::maybe_reselect(const sim::LaneWorld& world, int vehicle, Rng& rng,
                               bool explore) {
  if (option_terminated(exec_, world, vehicle, term_)) select(world, vehicle, rng, explore);
}

AgentUpdateStats HeroAgent::update(Rng& rng) {
  OBS_SPAN("stage2/update");
  OBS_PHASE("update");
  AgentUpdateStats stats;
  {
    OBS_SPAN("stage2/update/opponent");
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
