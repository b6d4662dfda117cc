#include "algos/maac.h"

#include <algorithm>

#include "common/stats.h"
#include "nn/losses.h"
#include "obs/obs.h"

namespace hero::algos {

MaacTrainer::MaacTrainer(const sim::Scenario& scenario, const MaacConfig& cfg, Rng& rng)
    : scenario_(scenario),
      cfg_(cfg),
      world_(scenario.config),
      grid_(rl::ActionGrid::standard()),
      n_(world_.num_learners()),
      obs_dim_(baseline_obs_dim(world_)),
      actor_(obs_dim_ + static_cast<std::size_t>(n_), cfg.hidden, grid_.size(), rng),
      buffer_(cfg.buffer_capacity) {
  critic_ = std::make_unique<AttentionCritic>(obs_dim_, grid_.size(), cfg_.embed_dim,
                                              cfg_.hidden, rng);
  critic_target_ = std::make_unique<AttentionCritic>(*critic_);
  actor_opt_ = std::make_unique<nn::Adam>(actor_.net().params(), cfg_.lr * 0.5);
  critic_opt_ = std::make_unique<nn::Adam>(critic_->params(), cfg_.lr);
  if (cfg_.num_workers > 1) {
    pool_ = std::make_unique<runtime::ThreadPool>(
        static_cast<std::size_t>(cfg_.num_workers));
  }
}

void MaacTrainer::for_rows(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (pool_) {
    pool_->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

std::vector<double> MaacTrainer::actor_obs(const std::vector<double>& obs,
                                           int agent) const {
  std::vector<double> in = obs;
  for (int j = 0; j < n_; ++j) in.push_back(j == agent ? 1.0 : 0.0);
  return in;
}

void MaacTrainer::act_rows_into(const rl::ObsBatch& batch, Rng* const* rngs,
                                bool explore, sim::TwistCmd* cmds_out) {
  batched_act(batch, rngs, explore, cmds_out);
}

void MaacTrainer::batched_act(const rl::ObsBatch& batch, Rng* const* rngs,
                              bool explore, sim::TwistCmd* cmds_out) {
  OBS_PHASE("act_rows");
  const int n = batch.num_learners();
  HERO_CHECK_MSG(n == n_, "batch has " << n << " learners, trainer has " << n_);
  act_slots_.clear();
  for (std::size_t s = 0; s < batch.count(); ++s) {
    if (batch.slot(s).active) act_slots_.push_back(s);
  }
  if (act_slots_.empty()) return;
  const std::size_t obs_dim = batch.hl_dim() + batch.ll_dim();
  for (int k = 0; k < n; ++k) {
    gather_baseline_rows(batch, k, act_slots_, act_gather_);
    act_in_rows_.resize(act_slots_.size(), obs_dim + static_cast<std::size_t>(n_));
    for (std::size_t r = 0; r < act_slots_.size(); ++r) {
      double* row = act_in_rows_.row_ptr(r);
      const double* src = act_gather_.row_ptr(r);
      std::copy(src, src + obs_dim, row);
      for (int j = 0; j < n_; ++j) row[obs_dim + static_cast<std::size_t>(j)] =
          j == k ? 1.0 : 0.0;
    }
    nn::softmax_into(actor_.net().forward(act_in_rows_), act_probs_);
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

std::size_t MaacTrainer::sample_action(int agent, const std::vector<double>& obs,
                                       Rng& rng, bool greedy) {
  return actor_.act(actor_obs(obs, agent), rng, greedy);
}

std::vector<sim::TwistCmd> MaacTrainer::act(const sim::LaneWorld& world, Rng& rng,
                                            bool explore) {
  std::vector<sim::TwistCmd> cmds;
  for (int k = 0; k < n_; ++k) {
    const int vi = world.learners()[static_cast<std::size_t>(k)];
    cmds.push_back(grid_.decode(
        sample_action(k, baseline_obs(world, vi), rng, /*greedy=*/!explore)));
  }
  return cmds;
}

void MaacTrainer::update(Rng& rng) {
  OBS_PHASE("update");
  if (!buffer_.ready(std::max(cfg_.batch, cfg_.warmup_steps))) return;
  auto batch = buffer_.sample(cfg_.batch, rng);
  const std::size_t B = batch.size();
  const std::size_t A = grid_.size();
  const std::size_t N = static_cast<std::size_t>(n_);
  const std::size_t m = N - 1;

  // Fills actor_in_ with [obs ; onehot(agent)] rows for agent j's (next_)obs.
  auto fill_actor_in = [&](int j, bool next) {
    actor_in_.resize(B, obs_dim_ + N);
    for_rows(B, [&](std::size_t b) {
      const auto& o = next ? batch[b]->next_obs[static_cast<std::size_t>(j)]
                           : batch[b]->obs[static_cast<std::size_t>(j)];
      double* row = actor_in_.row_ptr(b);
      std::copy(o.begin(), o.end(), row);
      for (std::size_t k = 0; k < N; ++k)
        row[obs_dim_ + k] = (static_cast<int>(k) == j) ? 1.0 : 0.0;
    });
  };

  // Sample next actions for every agent from the current (shared) actor, and
  // keep their log-probs for the soft target.
  next_actions_.resize(N);
  next_logp_.resize(N);
  for (int j = 0; j < n_; ++j) {
    auto& na = next_actions_[static_cast<std::size_t>(j)];
    auto& nl = next_logp_[static_cast<std::size_t>(j)];
    na.resize(B);
    nl.resize(B);
    fill_actor_in(j, /*next=*/true);
    const nn::Matrix& logits = actor_.net().forward(actor_in_);
    nn::log_softmax_into(logits, logp_);
    nn::softmax_into(logits, probs_);
    for (std::size_t b = 0; b < B; ++b) {
      // Inverse-CDF draw straight off the probability row (no row copy).
      const double* p = probs_.row_ptr(b);
      const double u = rng.uniform(0.0, 1.0);
      std::size_t a = A - 1;
      double acc = 0.0;
      for (std::size_t c = 0; c < A; ++c) {
        acc += p[c];
        if (u < acc) { a = c; break; }
      }
      na[b] = a;
      nl[b] = logp_(b, a);
    }
  }

  // Fills own_m_ / others_m_ for a focal agent from (next_)obs and actions.
  auto fill_own = [&](int i, bool next) {
    own_m_.resize(B, obs_dim_);
    for_rows(B, [&](std::size_t b) {
      const auto& o = next ? batch[b]->next_obs[static_cast<std::size_t>(i)]
                           : batch[b]->obs[static_cast<std::size_t>(i)];
      std::copy(o.begin(), o.end(), own_m_.row_ptr(b));
    });
  };
  auto fill_others = [&](int focal, auto obs_of, auto action_of) {
    others_m_.resize(m * B, obs_dim_ + A);
    others_m_.fill(0.0);
    // Row index r = jj·B + b over the non-focal agents, flattened so every
    // row is written by exactly one task.
    for_rows(m * B, [&](std::size_t r) {
      const std::size_t jj = r / B;
      const std::size_t b = r % B;
      int j = static_cast<int>(jj);
      if (j >= focal) ++j;  // skip the focal agent, preserving agent order
      const std::vector<double>& o = obs_of(j, b);
      double* row = others_m_.row_ptr(r);
      std::copy(o.begin(), o.end(), row);
      row[obs_dim_ + action_of(j, b)] = 1.0;
    });
  };

  // ----- critic update (all agents share one critic; grads accumulate) -----
  critic_->zero_grad();
  y_.resize(B);
  taken_.resize(B);
  for (int i = 0; i < n_; ++i) {
    fill_own(i, /*next=*/true);
    fill_others(
        i, [&](int j, std::size_t b) -> const std::vector<double>& {
          return batch[b]->next_obs[static_cast<std::size_t>(j)];
        },
        [&](int j, std::size_t b) { return next_actions_[static_cast<std::size_t>(j)][b]; });
    critic_target_->forward(own_m_, others_m_, tgt_pass_);

    for_rows(B, [&](std::size_t b) {
      const std::size_t a_next = next_actions_[static_cast<std::size_t>(i)][b];
      const double soft_q = tgt_pass_.q(b, a_next) -
                            cfg_.alpha * next_logp_[static_cast<std::size_t>(i)][b];
      y_[b] = batch[b]->rewards[static_cast<std::size_t>(i)] +
              (batch[b]->done ? 0.0 : cfg_.gamma * soft_q);
    });

    fill_own(i, /*next=*/false);
    for (std::size_t b = 0; b < B; ++b)
      taken_[b] = batch[b]->actions[static_cast<std::size_t>(i)];
    fill_others(
        i, [&](int j, std::size_t b) -> const std::vector<double>& {
          return batch[b]->obs[static_cast<std::size_t>(j)];
        },
        [&](int j, std::size_t b) { return batch[b]->actions[static_cast<std::size_t>(j)]; });
    critic_->forward(own_m_, others_m_, pass_);
    nn::mse_loss_selected_into(pass_.q, taken_, y_, crit_grad_);
    critic_->backward(pass_, crit_grad_);
  }
  critic_->clip_grad_norm(cfg_.grad_clip);
  critic_opt_->step();

  // ----- actor update (expected soft policy gradient, exact over actions) --
  // J_t = Σ_a π(a|o)(Q(a) − α log π(a));   dJ/dlogit_c = π_c (f_c − E[f]),
  // f_a = Q_a − α log π_a. Critic treated as a constant.
  actor_.net().zero_grad();
  for (int i = 0; i < n_; ++i) {
    fill_own(i, /*next=*/false);
    fill_others(
        i, [&](int j, std::size_t b) -> const std::vector<double>& {
          return batch[b]->obs[static_cast<std::size_t>(j)];
        },
        [&](int j, std::size_t b) { return batch[b]->actions[static_cast<std::size_t>(j)]; });
    critic_->forward(own_m_, others_m_, pass_);

    fill_actor_in(i, /*next=*/false);
    const nn::Matrix& logits = actor_.net().forward(actor_in_);
    nn::softmax_into(logits, probs_);
    nn::log_softmax_into(logits, logp_);
    dlogits_.resize(B, A);
    const double inv = 1.0 / static_cast<double>(B * N);
    for_rows(B, [&](std::size_t b) {
      double mean_f = 0.0;
      for (std::size_t a = 0; a < A; ++a) {
        mean_f += probs_(b, a) * (pass_.q(b, a) - cfg_.alpha * logp_(b, a));
      }
      for (std::size_t a = 0; a < A; ++a) {
        const double f = pass_.q(b, a) - cfg_.alpha * logp_(b, a);
        dlogits_(b, a) = -probs_(b, a) * (f - mean_f) * inv;  // minimize −J
      }
    });
    actor_.net().backward(dlogits_);
  }
  actor_.net().clip_grad_norm(cfg_.grad_clip);
  actor_opt_->step();

  critic_target_->soft_update_from(*critic_, cfg_.tau);
}

void MaacTrainer::train(int episodes, Rng& rng, const EpisodeHook& hook) {
  for (int ep = 0; ep < episodes; ++ep) {
    OBS_PHASE("episode");
    world_.reset(rng);
    rl::EpisodeStats stats;

    while (!world_.done()) {
      Transition t;
      t.obs.resize(static_cast<std::size_t>(n_));
      t.actions.resize(static_cast<std::size_t>(n_));
      std::vector<sim::TwistCmd> cmds;
      for (int k = 0; k < n_; ++k) {
        const int vi = world_.learners()[static_cast<std::size_t>(k)];
        t.obs[static_cast<std::size_t>(k)] = baseline_obs(world_, vi);
        t.actions[static_cast<std::size_t>(k)] =
            sample_action(k, t.obs[static_cast<std::size_t>(k)], rng, /*greedy=*/false);
        cmds.push_back(grid_.decode(t.actions[static_cast<std::size_t>(k)]));
      }

      auto result = world_.step(cmds, rng);
      stats.team_reward += mean_of(result.reward);
      if (result.collision) stats.collision = true;
      ++total_steps_;

      t.rewards = result.reward;
      t.done = result.done;
      t.next_obs.resize(static_cast<std::size_t>(n_));
      for (int k = 0; k < n_; ++k) {
        const int vi = world_.learners()[static_cast<std::size_t>(k)];
        t.next_obs[static_cast<std::size_t>(k)] = baseline_obs(world_, vi);
      }
      buffer_.add(std::move(t));

      if (total_steps_ % cfg_.update_every == 0) update(rng);
    }

    stats.steps = world_.steps();
    stats.success = !stats.collision &&
                    world_.lane(scenario_.merger_index) == scenario_.merger_target_lane;
    double speed = 0.0;
    for (int vi : world_.learners()) speed += world_.mean_speed(vi);
    stats.mean_speed = speed / static_cast<double>(world_.num_learners());
    record_episode("maac", ep, stats);
    if (hook) hook(ep, stats);
  }
}

}  // namespace hero::algos
