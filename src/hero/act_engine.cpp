#include "hero/act_engine.h"

#include <algorithm>

#include "obs/phase.h"

namespace hero::core {

void HeroActEngine::act_rows(SkillBank& skills,
                             std::vector<std::unique_ptr<HeroAgent>>& agents,
                             const HighLevelConfig& high,
                             const TerminationConfig& term,
                             const rl::ObsBatch& batch,
                             HeroSession* const* sessions, Rng* const* rngs,
                             bool explore, sim::TwistCmd* cmds_out) {
  OBS_PHASE("act_rows");
  const std::size_t count = batch.count();
  const int n = batch.num_learners();
  HERO_CHECK_MSG(static_cast<int>(agents.size()) == n,
                 "batch has " << n << " learners, model has " << agents.size());
  const std::size_t hl_dim = batch.hl_dim();
  const std::size_t ll_dim = batch.ll_dim();
  const std::size_t opp_dim = agents.empty() ? 0 : agents[0]->opponents().feature_dim();
  n_ = n;

  {
  OBS_PHASE("select");
  // (1) Session init / β_o termination → who re-selects this tick.
  needs_select_.assign(count * static_cast<std::size_t>(n), 0);
  blocks_.resize(count * static_cast<std::size_t>(n), opp_dim);
  for (std::size_t s = 0; s < count; ++s) {
    const auto& meta = batch.slot(s);
    if (!meta.active) continue;
    HERO_CHECK_MSG(meta.track != nullptr, "ObsBatch slot carries no track");
    HeroSession& sess = *sessions[s];
    if (meta.reset) sess.reset();
    if (!sess.started) {
      sess.agents.assign(static_cast<std::size_t>(n), HeroSession::AgentState{});
      sess.options.assign(static_cast<std::size_t>(n),
                          static_cast<int>(Option::kKeepLane));
      for (int k = 0; k < n; ++k) {
        // A fresh session explores from the learner's ε-schedule position
        // at its start (in stage 2, the position at the round's start).
        sess.agents[static_cast<std::size_t>(k)].selections =
            agents[static_cast<std::size_t>(k)]->high_level().selections();
        needs_select_[idx(s, k)] = 1;
      }
      continue;
    }
    for (int k = 0; k < n; ++k) {
      const auto& sc = batch.scalars(s, k);
      if (option_terminated(sess.agents[static_cast<std::size_t>(k)].exec,
                            *meta.track, sc.y, sc.heading,
                            /*world_done=*/false, term)) {
        needs_select_[idx(s, k)] = 1;
      }
    }
  }

  // (2) Option selection, agent-major (one opponent + one actor forward per
  // agent across every slot that re-selects).
  for (int k = 0; k < n; ++k) {
    sel_slots_.clear();
    for (std::size_t s = 0; s < count; ++s) {
      if (needs_select_[idx(s, k)] != 0) sel_slots_.push_back(s);
    }
    if (sel_slots_.empty()) continue;
    const std::size_t m = sel_slots_.size();

    sel_obs_.resize(m, hl_dim);
    for (std::size_t r = 0; r < m; ++r) {
      const double* src = batch.hl_row(sel_slots_[r], k);
      std::copy(src, src + hl_dim, sel_obs_.row_ptr(r));
    }
    if (opp_dim > 0) {
      if (high.use_opponent_model) {
        agents[static_cast<std::size_t>(k)]->opponents().predict_all_rows(
            sel_obs_, sel_blocks_);
      } else {
        sel_blocks_.resize(m, opp_dim);
        sel_blocks_.fill(1.0 / kNumOptions);
      }
    }
    sel_in_.resize(m, hl_dim + opp_dim);
    for (std::size_t r = 0; r < m; ++r) {
      double* row = sel_in_.row_ptr(r);
      const double* src = sel_obs_.row_ptr(r);
      std::copy(src, src + hl_dim, row);
      for (std::size_t c = 0; c < opp_dim; ++c) row[hl_dim + c] = sel_blocks_(r, c);
    }
    agents[static_cast<std::size_t>(k)]->high_level().option_probs_rows(sel_in_,
                                                                        sel_probs_);

    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t s = sel_slots_[r];
      std::copy(sel_blocks_.row_ptr(r), sel_blocks_.row_ptr(r) + opp_dim,
                blocks_.row_ptr(idx(s, k)));
      HeroSession::AgentState& as = sessions[s]->agents[static_cast<std::size_t>(k)];
      const auto& sc = batch.scalars(s, k);
      ++as.selections;
      const int opt = HighLevelAgent::select_from_probs(
          high, sel_probs_.row_ptr(r), as.selections, *rngs[s], explore);
      as.exec = OptionExecution{};
      as.exec.option = option_from_index(opt);
      as.exec.target_lane = as.exec.option == Option::kLaneChange
                                ? batch.slot(s).track->num_lanes() - 1 - sc.lane
                                : sc.lane;
      as.exec.hold_speed = sc.speed;
      sessions[s]->options[static_cast<std::size_t>(k)] = opt;
    }
  }
  for (std::size_t s = 0; s < count; ++s) {
    if (batch.slot(s).active) sessions[s]->started = true;
  }
  }  // OBS_PHASE("select")

  // (3) Skill commands: keep-lane closed-form, learned options option-major
  // with one batched policy forward each. One world step follows each tick
  // by contract, so every held option ages by one step here.
  OBS_PHASE("skills");
  for (std::size_t s = 0; s < count; ++s) {
    if (!batch.slot(s).active) continue;
    for (int k = 0; k < n; ++k) {
      HeroSession::AgentState& as = sessions[s]->agents[static_cast<std::size_t>(k)];
      if (as.exec.option == Option::kKeepLane) {
        cmds_out[idx(s, k)] = {as.exec.hold_speed, 0.0};
      }
      ++as.exec.steps;
    }
  }
  for (int oi = 0; oi < kNumOptions; ++oi) {
    const Option o = option_from_index(oi);
    if (!skills.has_agent(o)) continue;
    sk_rows_.clear();
    for (std::size_t s = 0; s < count; ++s) {
      if (!batch.slot(s).active) continue;
      for (int k = 0; k < n; ++k) {
        if (sessions[s]->agents[static_cast<std::size_t>(k)].exec.option == o) {
          sk_rows_.push_back({s, k});
        }
      }
    }
    if (sk_rows_.empty()) continue;
    const std::size_t m = sk_rows_.size();
    sk_obs_.resize(m, ll_dim);
    sk_rngs_.resize(m);
    for (std::size_t r = 0; r < m; ++r) {
      const auto [s, k] = sk_rows_[r];
      const auto& as = sessions[s]->agents[static_cast<std::size_t>(k)];
      const auto& sc = batch.scalars(s, k);
      const int ref_lane =
          o == Option::kLaneChange ? as.exec.target_lane : sc.lane;
      const double* src = batch.ll_row(s, k, ref_lane);
      std::copy(src, src + ll_dim, sk_obs_.row_ptr(r));
      sk_rngs_[r] = rngs[s];
    }
    skills.agent(o).policy().act_rows_into(sk_obs_, sk_rngs_.data(),
                                           /*deterministic=*/!explore, sk_act_);
    for (std::size_t r = 0; r < m; ++r) {
      const auto [s, k] = sk_rows_[r];
      const auto& as = sessions[s]->agents[static_cast<std::size_t>(k)];
      const auto& sc = batch.scalars(s, k);
      const auto& meta = batch.slot(s);
      cmds_out[idx(s, k)] = skills.to_twist_core(as.exec, *meta.track, meta.dt,
                                                 sc.y, sc.heading,
                                                 sk_act_.row_ptr(r), sk_act_.cols());
    }
  }
}

}  // namespace hero::core
