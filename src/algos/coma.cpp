#include "algos/coma.h"

#include <algorithm>

#include "nn/losses.h"
#include "obs/obs.h"

namespace hero::algos {

ComaTrainer::ComaTrainer(const sim::Scenario& scenario, const ComaConfig& cfg, Rng& rng)
    : scenario_(scenario),
      cfg_(cfg),
      world_(scenario.config),
      grid_(rl::ActionGrid::standard()),
      n_(world_.num_learners()),
      obs_dim_(baseline_obs_dim(world_)) {
  const std::size_t critic_in = static_cast<std::size_t>(n_) * obs_dim_ +
                                static_cast<std::size_t>(n_) +
                                static_cast<std::size_t>(n_ - 1) * grid_.size();
  for (int i = 0; i < n_; ++i) {
    actors_.emplace_back(obs_dim_, cfg_.hidden, grid_.size(), rng);
    actor_opt_.push_back(
        std::make_unique<nn::Adam>(actors_.back().net().params(), cfg_.lr));
  }
  critic_ = nn::Mlp(critic_in, cfg_.hidden, grid_.size(), rng);
  critic_target_ = critic_;
  critic_opt_ =
      std::make_unique<nn::Adam>(critic_.params(), cfg_.lr * cfg_.critic_lr_scale);
}

void ComaTrainer::critic_input_into(const StepRecord& rec, int agent,
                                    double* row) const {
  std::size_t c = 0;
  for (const auto& o : rec.obs) {
    for (double v : o) row[c++] = v;
  }
  // Agent id one-hot.
  for (int j = 0; j < n_; ++j) row[c++] = (j == agent) ? 1.0 : 0.0;
  // Other agents' actions, one-hot, in agent order skipping `agent`.
  for (int j = 0; j < n_; ++j) {
    if (j == agent) continue;
    for (std::size_t a = 0; a < grid_.size(); ++a) {
      row[c++] = (rec.actions[static_cast<std::size_t>(j)] == a) ? 1.0 : 0.0;
    }
  }
}

void ComaTrainer::act_rows_into(const rl::ObsBatch& batch, Rng* const* rngs,
                                bool explore, sim::TwistCmd* cmds_out) {
  OBS_PHASE("act_rows");
  const int n = batch.num_learners();
  HERO_CHECK_MSG(n == n_, "batch has " << n << " learners, trainer has " << n_);
  active_slots(batch, act_slots_);
  if (act_slots_.empty()) return;
  for (int k = 0; k < n; ++k) {
    gather_baseline_rows(batch, k, act_slots_, act_obs_);
    nn::softmax_into(actors_[static_cast<std::size_t>(k)].net().forward(act_obs_),
                     act_probs_);
    for (std::size_t r = 0; r < act_slots_.size(); ++r) {
      const std::size_t s = act_slots_[r];
      const double* p = act_probs_.row_ptr(r);
      const std::size_t a =
          explore ? rngs[s]->categorical(p, act_probs_.cols())
                  : static_cast<std::size_t>(
                        std::max_element(p, p + act_probs_.cols()) - p);
      cmds_out[s * static_cast<std::size_t>(n) + static_cast<std::size_t>(k)] =
          grid_.decode(a);
    }
  }
}

void ComaTrainer::update_from_episode(const std::vector<StepRecord>& episode) {
  OBS_PHASE("update");
  if (episode.empty()) return;
  const std::size_t T = episode.size();

  // Monte-Carlo returns (COMA's TD(λ) with λ = 1): G_t = r_t + γ G_{t+1}.
  returns_.resize(T);
  double g = 0.0;
  for (std::size_t t = T; t-- > 0;) {
    g = episode[t].reward + cfg_.gamma * g;
    returns_[t] = g;
  }

  const std::size_t A = grid_.size();
  for (int i = 0; i < n_; ++i) {
    // ----- critic regression: Q(s_t, a^i_t) → G_t -----
    critic_in_m_.resize(T, critic_.in_dim());
    taken_.resize(T);
    for (std::size_t t = 0; t < T; ++t) {
      critic_input_into(episode[t], i, critic_in_m_.row_ptr(t));
      taken_[t] = episode[t].actions[static_cast<std::size_t>(i)];
    }
    const nn::Matrix& qs = critic_.forward(critic_in_m_);
    nn::mse_loss_selected_into(qs, taken_, returns_, closs_grad_);
    critic_.zero_grad();
    critic_.backward_params(closs_grad_);
    critic_.clip_grad_norm(cfg_.grad_clip);
    critic_opt_->step();

    // ----- actor update with the counterfactual advantage -----
    // Recompute Q after the critic step for a slightly fresher estimate.
    const nn::Matrix& q_now = critic_.forward(critic_in_m_);
    obs_m_.resize(T, obs_dim_);
    for (std::size_t t = 0; t < T; ++t) {
      const auto& o = episode[t].obs[static_cast<std::size_t>(i)];
      std::copy(o.begin(), o.end(), obs_m_.row_ptr(t));
    }

    auto& actor = actors_[static_cast<std::size_t>(i)];
    const nn::Matrix& logits = actor.net().forward(obs_m_);
    nn::softmax_into(logits, probs_);
    nn::log_softmax_into(logits, logp_);

    // Advantage A_t = Q(a_taken) − Σ_a π(a) Q(a); loss = −A·log π(a_taken)
    // − β·H(π). Gradient w.r.t. logits assembled directly.
    const double inv_t = 1.0 / static_cast<double>(T);
    dlogits_.resize(T, A);
    dlogits_.fill(0.0);
    for (std::size_t t = 0; t < T; ++t) {
      double baseline = 0.0;
      for (std::size_t a = 0; a < A; ++a) baseline += probs_(t, a) * q_now(t, a);
      const double adv = q_now(t, taken_[t]) - baseline;
      // policy-gradient part: d(−adv·logπ(a_t))/dlogits = adv·(π − onehot)
      for (std::size_t a = 0; a < A; ++a) {
        dlogits_(t, a) += adv * probs_(t, a) * inv_t;
      }
      dlogits_(t, taken_[t]) -= adv * inv_t;
      // entropy bonus: d(−β·H)/dlogits = β·π·(logπ + H)
      double ent = 0.0;
      for (std::size_t a = 0; a < A; ++a) ent -= probs_(t, a) * logp_(t, a);
      for (std::size_t a = 0; a < A; ++a) {
        dlogits_(t, a) += cfg_.entropy_coef * probs_(t, a) * (logp_(t, a) + ent) * inv_t;
      }
    }
    actor.net().zero_grad();
    actor.net().backward_params(dlogits_);
    actor.net().clip_grad_norm(cfg_.grad_clip);
    actor_opt_[static_cast<std::size_t>(i)]->step();
  }
  critic_target_.soft_update_from(critic_, cfg_.tau);
}

void ComaTrainer::record_step(const rl::StepView& tick) {
  const std::size_t N = static_cast<std::size_t>(n_);
  for (std::size_t s = 0; s < tick.before.count(); ++s) {
    if (!tick.before.slot(s).active) continue;
    StepRecord rec;
    double sum = 0.0;
    for (int k = 0; k < n_; ++k) {
      const std::size_t idx = s * N + static_cast<std::size_t>(k);
      rec.obs.push_back(baseline_row(tick.before, s, k));
      rec.actions.push_back(grid_.encode(tick.cmds[idx]));
      sum += tick.result.reward[idx];
    }
    rec.reward = sum / static_cast<double>(n_);
    episodes_[s].push_back(std::move(rec));
  }
}

void ComaTrainer::train(int episodes, Rng& rng, const EpisodeHook& hook) {
  rl::EpisodeLoop loop = training_loop(*this, scenario_, "coma", hook);
  episodes_.assign(static_cast<std::size_t>(std::max(cfg_.batch_envs, 1)), {});
  loop.on_step = [&](const rl::StepView& tick) { record_step(tick); };
  loop.on_episode = [this, report = loop.on_episode](
                        int ep, std::size_t lane, const rl::EpisodeStats& s) {
    update_from_episode(episodes_[lane]);
    episodes_[lane].clear();
    report(ep, lane, s);
  };
  run_training(loop, world_, cfg_.batch_envs, episodes, rng);
}

}  // namespace hero::algos
