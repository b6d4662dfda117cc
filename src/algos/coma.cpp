#include "algos/coma.h"

#include <algorithm>

#include "common/stats.h"
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
  if (cfg_.num_workers > 1) {
    pool_ = std::make_unique<runtime::ThreadPool>(
        static_cast<std::size_t>(cfg_.num_workers));
  }
}

void ComaTrainer::for_rows(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (pool_) {
    pool_->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

void ComaTrainer::critic_input_into(const StepRecord& rec, int agent,
                                    double* row) const {
  std::size_t c = 0;
  for (double v : rec.joint_obs) row[c++] = v;
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
  batched_act(batch, rngs, explore, cmds_out);
}

void ComaTrainer::batched_act(const rl::ObsBatch& batch, Rng* const* rngs,
                              bool explore, sim::TwistCmd* cmds_out) {
  OBS_PHASE("act_rows");
  const int n = batch.num_learners();
  HERO_CHECK_MSG(n == n_, "batch has " << n << " learners, trainer has " << n_);
  act_slots_.clear();
  for (std::size_t s = 0; s < batch.count(); ++s) {
    if (batch.slot(s).active) act_slots_.push_back(s);
  }
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

void ComaTrainer::update_from_episode(const std::vector<StepRecord>& episode,
                                      Rng& rng) {
  OBS_PHASE("update");
  (void)rng;
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
    for_rows(T, [&](std::size_t t) {
      critic_input_into(episode[t], i, critic_in_m_.row_ptr(t));
      taken_[t] = episode[t].actions[static_cast<std::size_t>(i)];
    });
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
    for_rows(T, [&](std::size_t t) {
      const auto& o = episode[t].obs[static_cast<std::size_t>(i)];
      std::copy(o.begin(), o.end(), obs_m_.row_ptr(t));
    });

    auto& actor = actors_[static_cast<std::size_t>(i)];
    const nn::Matrix& logits = actor.net().forward(obs_m_);
    nn::softmax_into(logits, probs_);
    nn::log_softmax_into(logits, logp_);

    // Advantage A_t = Q(a_taken) − Σ_a π(a) Q(a); loss = −A·log π(a_taken)
    // − β·H(π). Gradient w.r.t. logits assembled directly.
    const double inv_t = 1.0 / static_cast<double>(T);
    dlogits_.resize(T, A);
    dlogits_.fill(0.0);
    for_rows(T, [&](std::size_t t) {
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
    });
    actor.net().zero_grad();
    actor.net().backward_params(dlogits_);
    actor.net().clip_grad_norm(cfg_.grad_clip);
    actor_opt_[static_cast<std::size_t>(i)]->step();
  }
  critic_target_.soft_update_from(critic_, cfg_.tau);
}

void ComaTrainer::train(int episodes, Rng& rng, const EpisodeHook& hook) {
  for (int ep = 0; ep < episodes; ++ep) {
    OBS_PHASE("episode");
    world_.reset(rng);
    rl::EpisodeStats stats;
    std::vector<StepRecord> episode;

    while (!world_.done()) {
      StepRecord rec;
      rec.obs.resize(static_cast<std::size_t>(n_));
      rec.actions.resize(static_cast<std::size_t>(n_));
      std::vector<sim::TwistCmd> cmds;
      for (int k = 0; k < n_; ++k) {
        const int vi = world_.learners()[static_cast<std::size_t>(k)];
        rec.obs[static_cast<std::size_t>(k)] = baseline_obs(world_, vi);
        rec.joint_obs.insert(rec.joint_obs.end(),
                             rec.obs[static_cast<std::size_t>(k)].begin(),
                             rec.obs[static_cast<std::size_t>(k)].end());
        rec.actions[static_cast<std::size_t>(k)] = actors_[static_cast<std::size_t>(k)].act(
            rec.obs[static_cast<std::size_t>(k)], rng, /*greedy=*/false);
        cmds.push_back(grid_.decode(rec.actions[static_cast<std::size_t>(k)]));
      }

      auto result = world_.step(cmds, rng);
      rec.reward = mean_of(result.reward);
      stats.team_reward += rec.reward;
      if (result.collision) stats.collision = true;
      episode.push_back(std::move(rec));
    }

    update_from_episode(episode, rng);

    stats.steps = world_.steps();
    stats.success = !stats.collision &&
                    world_.lane(scenario_.merger_index) == scenario_.merger_target_lane;
    double speed = 0.0;
    for (int vi : world_.learners()) speed += world_.mean_speed(vi);
    stats.mean_speed = speed / static_cast<double>(world_.num_learners());
    record_episode("coma", ep, stats);
    if (hook) hook(ep, stats);
  }
}

}  // namespace hero::algos
