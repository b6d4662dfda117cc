#include "hero/batched_rollout.h"

#include <algorithm>

namespace hero::core {

void BatchedRollout::on_step(const rl::StepView& tick, const HeroActEngine& engine,
                             const std::vector<HeroSession>& sessions, bool observing) {
  const rl::ObsBatch& before = tick.before;
  n_ = before.num_learners();
  hl_dim_ = before.hl_dim();
  const std::size_t lanes = before.count();
  const std::size_t slots = lanes * static_cast<std::size_t>(n_);
  if (episodes_.size() < lanes) episodes_.resize(lanes);
  if (lane_agents_.size() < slots) {
    lane_agents_.resize(slots);
    options_.resize(slots);
  }

  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (!before.slot(lane).active) continue;
    if (before.slot(lane).reset) begin_lane(lane);
    // This tick's selections close and open option transitions, then the
    // step's rewards go, discounted, into every pending transition.
    record_selections(lane, before, engine, sessions[lane].options);
    for (int k = 0; k < n_; ++k) {
      LaneAgent& la = lane_agents_[la_index(lane, k)];
      if (!la.has_pending) continue;
      la.pend_reward += la.pend_discount * tick.result.reward[la_index(lane, k)];
      la.pend_discount *= gamma_;
    }
    // The step's opponent labels come from the post-step rows (the terminal
    // rows on the last step), with the options held during the step.
    for (int k = 0; k < n_; ++k) {
      stage_opp_labels(lane, k, tick.after.hl_row(lane, k), observing);
    }
    if (tick.result.done[lane] == 0) continue;
    for (int k = 0; k < n_; ++k) {
      if (lane_agents_[la_index(lane, k)].has_pending) {
        close_pending(lane, k, tick.after.hl_row(lane, k), /*done=*/true);
      }
    }
  }
}

void BatchedRollout::begin_lane(std::size_t lane) {
  BatchedEpisode& ep = episodes_[lane];
  ep.switches = 0;
  ep.opp_total = 0;
  ep.opp_correct = 0;
  ep.selections.assign(static_cast<std::size_t>(n_), 0);
  ep.high.resize(static_cast<std::size_t>(n_));
  for (auto& v : ep.high) v.clear();
  ep.opp.resize(static_cast<std::size_t>(n_) *
                static_cast<std::size_t>(std::max(n_ - 1, 0)));
  for (auto& v : ep.opp) v.clear();
  for (int k = 0; k < n_; ++k) {
    LaneAgent& la = lane_agents_[la_index(lane, k)];
    la.has_pending = false;
    la.opp_cache.clear();
    options_[la_index(lane, k)] = static_cast<int>(Option::kKeepLane);
  }
}

void BatchedRollout::stage_opp_labels(std::size_t lane, int k,
                                      const double* obs_row, bool observing) {
  BatchedEpisode& ep = episodes_[lane];
  LaneAgent& la = lane_agents_[la_index(lane, k)];
  const std::size_t opp_dim =
      static_cast<std::size_t>(std::max(n_ - 1, 0)) * kNumOptions;
  const bool score =
      observing && use_opponent_model_ && la.opp_cache.size() == opp_dim;
  std::size_t slot = 0;
  for (int j = 0; j < n_; ++j) {
    if (j == k) continue;
    const int actual = options_[la_index(lane, j)];
    if (score) {
      // Score the block cached at option-selection time: one forward per
      // option hold, not one per primitive step.
      const double* p = la.opp_cache.data() + slot * kNumOptions;
      const int pred = static_cast<int>(std::max_element(p, p + kNumOptions) - p);
      ++ep.opp_total;
      if (pred == actual) ++ep.opp_correct;
    }
    ep.opp[static_cast<std::size_t>(k) * static_cast<std::size_t>(n_ - 1) + slot]
        .push_back({std::vector<double>(obs_row, obs_row + hl_dim_), actual});
    ++slot;
  }
}

void BatchedRollout::close_pending(std::size_t lane, int k, const double* next_obs,
                                   bool done) {
  LaneAgent& la = lane_agents_[la_index(lane, k)];
  episodes_[lane].high[static_cast<std::size_t>(k)].push_back(
      {std::move(la.pend_obs), std::move(la.pend_opp_actual), la.pend_option,
       la.pend_reward, la.pend_discount,
       std::vector<double>(next_obs, next_obs + hl_dim_), done});
  la.has_pending = false;
}

void BatchedRollout::record_selections(std::size_t lane, const rl::ObsBatch& rows,
                                       const HeroActEngine& engine,
                                       const std::vector<int>& held) {
  BatchedEpisode& ep = episodes_[lane];
  const std::size_t opp_dim =
      static_cast<std::size_t>(std::max(n_ - 1, 0)) * kNumOptions;
  for (int k = 0; k < n_; ++k) {
    if (!engine.selected(lane, k)) continue;
    LaneAgent& la = lane_agents_[la_index(lane, k)];
    const double* row = rows.hl_row(lane, k);
    ++ep.selections[static_cast<std::size_t>(k)];
    if (la.has_pending) {
      // β_o fired: the option that ran up to this tick ends at the
      // observation the next one starts from. An initial selection has
      // nothing to close.
      close_pending(lane, k, row, /*done=*/false);
      ++ep.switches;
    }
    la.pend_obs.assign(row, row + hl_dim_);
    // The engine selects agent-major, k ascending: an opponent j < k already
    // holds its option of this tick, an opponent j > k still the one it held
    // before.
    la.pend_opp_actual.assign(opp_dim, 0.0);
    std::size_t slot = 0;
    for (int j = 0; j < n_; ++j) {
      if (j == k) continue;
      const int opt = j < k ? held[static_cast<std::size_t>(j)]
                            : options_[la_index(lane, j)];
      la.pend_opp_actual[slot * kNumOptions + static_cast<std::size_t>(opt)] = 1.0;
      ++slot;
    }
    la.pend_option = held[static_cast<std::size_t>(k)];
    la.pend_reward = 0.0;
    la.pend_discount = 1.0;
    la.has_pending = true;
    if (opp_dim > 0) {
      la.opp_cache.assign(engine.opp_block(lane, k), engine.opp_block(lane, k) + opp_dim);
    }
  }
  std::copy(held.begin(), held.end(), options_.begin() + static_cast<long>(la_index(lane, 0)));
}

}  // namespace hero::core
