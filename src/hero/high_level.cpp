#include "hero/high_level.h"

#include <algorithm>

#include "nn/losses.h"
#include "obs/phase.h"
#include "rl/exploration.h"

namespace hero::core {

HighLevelAgent::HighLevelAgent(std::size_t obs_dim, int num_opponents,
                               const HighLevelConfig& cfg, Rng& rng)
    : cfg_(cfg),
      obs_dim_(obs_dim),
      opp_dim_(static_cast<std::size_t>(num_opponents) * kNumOptions),
      actor_(obs_dim + opp_dim_, cfg.hidden, kNumOptions, rng),
      critic_(obs_dim + kNumOptions + opp_dim_, cfg.hidden, 1, rng),
      critic_target_(critic_),
      buffer_(cfg.buffer_capacity) {
  actor_opt_ = std::make_unique<nn::Adam>(actor_.net().params(), cfg_.lr);
  critic_opt_ = std::make_unique<nn::Adam>(critic_.params(), cfg_.lr);
}

void HighLevelAgent::critic_input_into(const std::vector<double>& obs, int option,
                                       const double* opp_block, double* row) const {
  HERO_CHECK(obs.size() == obs_dim_);
  std::size_t c = 0;
  for (double v : obs) row[c++] = v;
  for (int a = 0; a < kNumOptions; ++a) row[c++] = (a == option) ? 1.0 : 0.0;
  for (std::size_t k = 0; k < opp_dim_; ++k) row[c++] = opp_block[k];
}

std::vector<double> HighLevelAgent::option_probs(
    const std::vector<double>& obs, const std::vector<double>& opp_block) {
  std::vector<double> in = obs;
  in.insert(in.end(), opp_block.begin(), opp_block.end());
  return actor_.probs1(in);
}

void HighLevelAgent::option_probs_rows(const nn::Matrix& in, nn::Matrix& probs) {
  HERO_CHECK(in.cols() == obs_dim_ + opp_dim_);
  nn::softmax_into(actor_.net().forward(in), probs);
}

int HighLevelAgent::select_from_probs(const HighLevelConfig& cfg,
                                      const double* probs, long selection_count,
                                      Rng& rng, bool explore) {
  if (explore) {
    const double eps = rl::LinearSchedule(cfg.eps_start, cfg.eps_end,
                                          cfg.eps_decay_selections)
                           .value(selection_count);
    if (rng.chance(eps)) return static_cast<int>(rng.index(kNumOptions));
    return static_cast<int>(rng.categorical(probs, kNumOptions));
  }
  int best = 0;
  for (int o = 1; o < kNumOptions; ++o) {
    if (probs[o] > probs[best]) best = o;
  }
  return best;
}

int HighLevelAgent::select_option(const std::vector<double>& obs,
                                  const std::vector<double>& opp_block, Rng& rng,
                                  bool explore) {
  ++selections_;
  // option_probs is draw-free, so evaluating it before the ε draw leaves the
  // RNG stream identical to drawing ε first (the batched path precomputes
  // probabilities for a whole round the same way).
  auto p = option_probs(obs, opp_block);
  return select_from_probs(cfg_, p.data(), selections_, rng, explore);
}

HighLevelUpdateStats HighLevelAgent::update(OpponentModel& opponents, Rng& rng) {
  if (!buffer_.ready(std::max(cfg_.batch, cfg_.warmup_transitions))) return {};
  HighLevelUpdateStats stats;
  stats.updated = true;

  const auto batch = [&] {
    OBS_PHASE("replay");
    return buffer_.sample(cfg_.batch, rng);
  }();
  const std::size_t B = batch.size();

  // Fills blocks_ (B × opp_dim) with the opponent blocks for one batch-wide
  // set of observations: a single batched forward per opponent network
  // (identical values to the old per-row predict_all_into loop — see
  // OpponentBatchEquivalence in tests/test_hero_learning.cpp — at a fraction
  // of the dispatch cost). Uniform prior under the ablation.
  auto fill_blocks = [&](auto&& obs_of) {
    blocks_.resize(B, std::max<std::size_t>(opp_dim_, 1));
    if (!cfg_.use_opponent_model || opp_dim_ == 0) {
      blocks_.fill(1.0 / kNumOptions);
      return;
    }
    obs_rows_.resize(B, obs_dim_);
    for (std::size_t b = 0; b < B; ++b) {
      const std::vector<double>& obs = obs_of(b);
      std::copy(obs.begin(), obs.end(), obs_rows_.row_ptr(b));
    }
    opponents.predict_all_rows(obs_rows_, blocks_);
  };

  const std::size_t cin_dim = obs_dim_ + kNumOptions + opp_dim_;

  // ----- critic TD target -----
  //   kMax:      y = R + γ^c·max_o' Q'(s', o', ô')
  //   kExpected: y = R + γ^c·Σ_o' π(o'|s', ô') Q'(s', o', ô')
  {
  OBS_PHASE("critic");
  targets_.resize(B);
  {
    // Assemble per-sample next-state actor inputs and all 4 next-Q inputs.
    fill_blocks([&](std::size_t b) -> const std::vector<double>& {
      return batch[b]->next_obs;
    });
    actor_in_.resize(B, obs_dim_ + opp_dim_);
    q_in_.resize(B * kNumOptions, cin_dim);
    for (std::size_t b = 0; b < B; ++b) {
      double* arow = actor_in_.row_ptr(b);
      std::copy(batch[b]->next_obs.begin(), batch[b]->next_obs.end(), arow);
      const double* block = blocks_.row_ptr(b);
      for (std::size_t k = 0; k < opp_dim_; ++k) arow[obs_dim_ + k] = block[k];
      for (int o = 0; o < kNumOptions; ++o) {
        critic_input_into(batch[b]->next_obs, o, block,
                          q_in_.row_ptr(b * kNumOptions + static_cast<std::size_t>(o)));
      }
    }
    nn::softmax_into(actor_.net().forward(actor_in_), probs_);
    const nn::Matrix& qnext = critic_target_.forward(q_in_);
    for (std::size_t b = 0; b < B; ++b) {
      double v;
      if (cfg_.bootstrap == Bootstrap::kMax) {
        v = qnext(b * kNumOptions, 0);
        for (int o = 1; o < kNumOptions; ++o) {
          v = std::max(v, qnext(b * kNumOptions + static_cast<std::size_t>(o), 0));
        }
      } else {
        v = 0.0;
        for (int o = 0; o < kNumOptions; ++o) {
          v += probs_(b, static_cast<std::size_t>(o)) *
               qnext(b * kNumOptions + static_cast<std::size_t>(o), 0);
        }
      }
      targets_[b] =
          batch[b]->reward + (batch[b]->done ? 0.0 : batch[b]->gamma_pow * v);
    }
  }

  cin_.resize(B, cin_dim);
  for (std::size_t b = 0; b < B; ++b) {
    critic_input_into(batch[b]->obs, batch[b]->option, batch[b]->opp_actual.data(),
                      cin_.row_ptr(b));
  }
  const nn::Matrix& pred = critic_.forward(cin_);
  target_m_.resize(B, 1);
  for (std::size_t b = 0; b < B; ++b) target_m_(b, 0) = targets_[b];
  HERO_DCHECK_FINITE(target_m_, "HighLevelAgent::update critic TD target");
  stats.critic_loss = nn::mse_loss_into(pred, target_m_, closs_grad_);
  critic_.zero_grad();
  critic_.backward(closs_grad_);
  stats.critic_grad_norm = critic_.clip_grad_norm(cfg_.grad_clip);
  critic_opt_->step();
  }

  // ----- actor: ∇logπ(o|s, ô)·A with A = Q(s,o,·) − Σ_o π Q, plus entropy --
  {
    OBS_PHASE("actor");
    fill_blocks([&](std::size_t b) -> const std::vector<double>& {
      return batch[b]->obs;
    });
    actor_in_.resize(B, obs_dim_ + opp_dim_);
    q_in_.resize(B * kNumOptions, cin_dim);
    for (std::size_t b = 0; b < B; ++b) {
      double* arow = actor_in_.row_ptr(b);
      std::copy(batch[b]->obs.begin(), batch[b]->obs.end(), arow);
      const double* block = blocks_.row_ptr(b);
      for (std::size_t k = 0; k < opp_dim_; ++k) arow[obs_dim_ + k] = block[k];
      for (int o = 0; o < kNumOptions; ++o) {
        // Q evaluated with the *actual* peer options from the buffer.
        critic_input_into(batch[b]->obs, o, batch[b]->opp_actual.data(),
                          q_in_.row_ptr(b * kNumOptions + static_cast<std::size_t>(o)));
      }
    }
    const nn::Matrix& q_all = critic_.forward(q_in_);
    const nn::Matrix& logits = actor_.net().forward(actor_in_);
    nn::softmax_into(logits, probs_);
    nn::log_softmax_into(logits, logp_);

    const double inv_b = 1.0 / static_cast<double>(B);
    dlogits_.resize(B, kNumOptions);
    dlogits_.fill(0.0);
    double mean_entropy = 0.0;
    for (std::size_t b = 0; b < B; ++b) {
      double baseline = 0.0;
      for (int o = 0; o < kNumOptions; ++o) {
        baseline += probs_(b, static_cast<std::size_t>(o)) *
                    q_all(b * kNumOptions + static_cast<std::size_t>(o), 0);
      }
      const std::size_t taken = static_cast<std::size_t>(batch[b]->option);
      const double adv = q_all(b * kNumOptions + taken, 0) - baseline;
      for (int o = 0; o < kNumOptions; ++o) {
        dlogits_(b, static_cast<std::size_t>(o)) +=
            adv * probs_(b, static_cast<std::size_t>(o)) * inv_b;
      }
      dlogits_(b, taken) -= adv * inv_b;

      double h = 0.0;
      for (int o = 0; o < kNumOptions; ++o) {
        const std::size_t c = static_cast<std::size_t>(o);
        h -= probs_(b, c) * logp_(b, c);
      }
      mean_entropy += h * inv_b;
      for (int o = 0; o < kNumOptions; ++o) {
        const std::size_t c = static_cast<std::size_t>(o);
        dlogits_(b, c) += cfg_.entropy_coef * probs_(b, c) * (logp_(b, c) + h) * inv_b;
      }
    }
    stats.actor_entropy = mean_entropy;
    HERO_DCHECK_FINITE(dlogits_, "HighLevelAgent::update actor logit gradient");
    actor_.net().zero_grad();
    actor_.net().backward(dlogits_);
    stats.actor_grad_norm = actor_.net().clip_grad_norm(cfg_.grad_clip);
    actor_opt_->step();
  }

  critic_target_.soft_update_from(critic_, cfg_.tau);
  return stats;
}

}  // namespace hero::core
