#include "hero/batched_rollout.h"

#include <algorithm>

#include "obs/phase.h"

namespace hero::core {

BatchedRollout::BatchedRollout(const sim::Scenario& scenario,
                               const HighLevelConfig& high,
                               const TerminationConfig& term, SkillBank& skills,
                               std::vector<std::unique_ptr<HeroAgent>>& agents,
                               int num_envs)
    : scenario_(scenario),
      high_cfg_(high),
      term_(term),
      skills_(skills),
      agents_(agents),
      world_(scenario.config, num_envs),
      sched_(static_cast<std::size_t>(num_envs)) {
  E_ = num_envs;
  n_ = world_.num_learners();
  HERO_CHECK(static_cast<int>(agents_.size()) == n_);
  const std::size_t slots = static_cast<std::size_t>(E_) * static_cast<std::size_t>(n_);
  batch_.configure(n_, world_.high_level_obs_dim(), world_.low_level_obs_dim(),
                   world_.track().num_lanes());
  sessions_.resize(static_cast<std::size_t>(E_));
  for (HeroSession& s : sessions_) session_ptrs_.push_back(&s);
  episodes_.resize(static_cast<std::size_t>(E_));
  lane_agents_.resize(slots);
  options_.assign(slots, static_cast<int>(Option::kKeepLane));
  cmds_.assign(slots, sim::TwistCmd{});
}

void BatchedRollout::begin_lane(std::size_t lane) {
  world_.reset_env(static_cast<int>(lane), sched_.rng(lane));

  BatchedEpisode& ep = episodes_[lane];
  ep.stats = rl::EpisodeStats{};
  ep.switches = 0;
  ep.opp_total = 0;
  ep.opp_correct = 0;
  ep.selections.assign(static_cast<std::size_t>(n_), 0);
  ep.high.resize(static_cast<std::size_t>(n_));
  for (auto& v : ep.high) v.clear();
  ep.opp.resize(static_cast<std::size_t>(n_) *
                static_cast<std::size_t>(std::max(n_ - 1, 0)));
  for (auto& v : ep.opp) v.clear();

  // The lane's session starts over: its first tick selects every agent's
  // initial option, exploring from the learner's round-start ε-schedule
  // position, so the trajectory of episode e cannot depend on which lanes
  // finish first.
  sessions_[lane].reset();
  for (int k = 0; k < n_; ++k) {
    LaneAgent& la = lane_agents_[la_index(lane, k)];
    la.has_pending = false;
    la.opp_cache.clear();
    ep.selections[static_cast<std::size_t>(k)] =
        agents_[static_cast<std::size_t>(k)]->high_level().selections();
    options_[la_index(lane, k)] = static_cast<int>(Option::kKeepLane);
  }
}

void BatchedRollout::run_round(std::uint64_t root, std::size_t first,
                               std::size_t count, bool observing) {
  OBS_PHASE("rollout");
  HERO_CHECK(count <= static_cast<std::size_t>(E_));
  sched_.begin_round(root, first, count);
  round_batch_steps_ = 0;
  for (std::size_t lane = 0; lane < count; ++lane) begin_lane(lane);
  while (sched_.live() > 0) step_once(observing);
}

void BatchedRollout::stage_opp_labels(std::size_t lane, int k,
                                      const double* obs_row, bool observing) {
  BatchedEpisode& ep = episodes_[lane];
  LaneAgent& la = lane_agents_[la_index(lane, k)];
  const std::size_t hl_dim = world_.high_level_obs_dim();
  const std::size_t opp_dim =
      static_cast<std::size_t>(std::max(n_ - 1, 0)) * kNumOptions;
  const bool score =
      observing && high_cfg_.use_opponent_model && la.opp_cache.size() == opp_dim;
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
        .push_back({std::vector<double>(obs_row, obs_row + hl_dim), actual});
    ++slot;
  }
}

void BatchedRollout::record_selections(std::size_t lane) {
  BatchedEpisode& ep = episodes_[lane];
  const std::size_t hl_dim = world_.high_level_obs_dim();
  const std::size_t opp_dim =
      static_cast<std::size_t>(std::max(n_ - 1, 0)) * kNumOptions;
  const std::vector<int>& held = sessions_[lane].options;  // after this tick
  for (int k = 0; k < n_; ++k) {
    if (!engine_.selected(lane, k)) continue;
    LaneAgent& la = lane_agents_[la_index(lane, k)];
    const double* row = batch_.hl_row(lane, k);
    if (la.has_pending) {
      // β_o fired: the option that ran up to this tick ends at the
      // observation the next one starts from. An initial selection has
      // nothing to close.
      ep.high[static_cast<std::size_t>(k)].push_back(
          {std::move(la.pend_obs), std::move(la.pend_opp_actual), la.pend_option,
           la.pend_reward, la.pend_discount, std::vector<double>(row, row + hl_dim),
           /*done=*/false});
      ++ep.switches;
    }
    la.pend_obs.assign(row, row + hl_dim);
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
      la.opp_cache.assign(engine_.opp_block(lane, k),
                          engine_.opp_block(lane, k) + opp_dim);
    }
  }
  std::copy(held.begin(), held.end(), options_.begin() + static_cast<long>(la_index(lane, 0)));
}

void BatchedRollout::finish_lane(std::size_t lane, bool observing) {
  BatchedEpisode& ep = episodes_[lane];
  const std::size_t hl_dim = world_.high_level_obs_dim();
  const int e = static_cast<int>(lane);

  // Terminal observation per agent: feeds the episode's last opponent labels
  // (labels follow every step, including the last) and the done = true
  // store of each agent's pending semi-MDP transition.
  batch_.set_slot_from_world(lane, world_, e, /*reset=*/false, &sched_.rng(lane));
  for (int k = 0; k < n_; ++k) {
    stage_opp_labels(lane, k, batch_.hl_row(lane, k), observing);
  }
  for (int k = 0; k < n_; ++k) {
    LaneAgent& la = lane_agents_[la_index(lane, k)];
    if (!la.has_pending) continue;
    const double* row = batch_.hl_row(lane, k);
    ep.high[static_cast<std::size_t>(k)].push_back(
        {std::move(la.pend_obs), std::move(la.pend_opp_actual), la.pend_option,
         la.pend_reward, la.pend_discount, std::vector<double>(row, row + hl_dim),
         /*done=*/true});
    la.has_pending = false;
  }

  ep.stats.steps = world_.steps(e);
  ep.stats.collision = world_.had_collision(e);
  ep.stats.success = !ep.stats.collision &&
                     world_.lane(e, scenario_.merger_index) ==
                         scenario_.merger_target_lane;
  double speed = 0.0;
  for (int vi : world_.learners()) speed += world_.mean_speed(e, vi);
  ep.stats.mean_speed = speed / static_cast<double>(n_);
  for (int k = 0; k < n_; ++k) {
    ep.selections[static_cast<std::size_t>(k)] =
        sessions_[lane].agents[static_cast<std::size_t>(k)].selections -
        ep.selections[static_cast<std::size_t>(k)];
  }
  sched_.finish(lane);
}

void BatchedRollout::step_once(bool observing) {
  const std::size_t lanes = sched_.round_size();

  {
    OBS_PHASE("obs_build");
    // (1) One batch slot per live lane, sensor noise from the lane's stream.
    // Its high-level rows serve as the previous step's opponent labels, this
    // tick's termination/selection input and the next_obs of any transition
    // a re-selection closes.
    batch_.set_count(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (!sched_.active(lane)) {
        batch_.slot(lane).active = false;
        continue;
      }
      batch_.set_slot_from_world(lane, world_, static_cast<int>(lane),
                                 /*reset=*/false, &sched_.rng(lane));
      // (2) Opponent labels for the step just taken, from the options held
      // during it (this tick's selection comes after).
      if (!sessions_[lane].started) continue;
      for (int k = 0; k < n_; ++k) {
        stage_opp_labels(lane, k, batch_.hl_row(lane, k), observing);
      }
    }
  }

  // (3) One engine tick over every live lane: β_o termination, option
  // selection and skill commands, exploring, each lane drawing from its own
  // stream (the engine's `select` and `skills` phases).
  engine_.act_rows(skills_, agents_, high_cfg_, term_, batch_, session_ptrs_.data(),
                   sched_.rng_ptrs(), /*explore=*/true, cmds_.data());

  // (4) One synchronized world step across every live lane (the sim_step
  // phase is recorded inside step_all).
  world_.step_all(cmds_.data(), sched_.rng_ptrs(), sched_.active_mask(),
                  step_out_);
  ++round_batch_steps_;

  OBS_PHASE("accumulate");
  // (5) Semi-MDP bookkeeping: this tick's selections close and open option
  // transitions, then the step's rewards go to the team mean of the episode
  // stats and, discounted, into every pending transition.
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (!sched_.active(lane)) continue;
    record_selections(lane);
    BatchedEpisode& ep = episodes_[lane];
    double sum = 0.0;
    for (int k = 0; k < n_; ++k) {
      const double r =
          step_out_.reward[lane * static_cast<std::size_t>(n_) +
                           static_cast<std::size_t>(k)];
      sum += r;
      LaneAgent& la = lane_agents_[la_index(lane, k)];
      if (la.has_pending) {
        la.pend_reward += la.pend_discount * r;
        la.pend_discount *= high_cfg_.gamma;
      }
    }
    ep.stats.team_reward += sum / static_cast<double>(n_);
    if (step_out_.collision[lane] != 0) ep.stats.collision = true;
  }

  // (6) Retire finished lanes (terminal obs, final labels, done stores).
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (sched_.active(lane) && step_out_.done[lane] != 0) {
      finish_lane(lane, observing);
    }
  }
}

}  // namespace hero::core
