#include "algos/sac.h"

#include <algorithm>
#include <cmath>

#include "nn/losses.h"
#include "obs/phase.h"
#include "obs/metrics.h"

namespace hero::algos {

SacAgent::SacAgent(std::size_t obs_dim, std::vector<double> action_lo,
                   std::vector<double> action_hi, const SacConfig& cfg, Rng& rng)
    : cfg_(cfg),
      obs_dim_(obs_dim),
      actor_(obs_dim, cfg.hidden, std::move(action_lo), std::move(action_hi), rng),
      q1_(obs_dim + actor_.action_dim(), cfg.hidden, 1, rng),
      q2_(obs_dim + actor_.action_dim(), cfg.hidden, 1, rng),
      q1_target_(q1_),
      q2_target_(q2_),
      buffer_(cfg.buffer_capacity) {
  actor_opt_ = std::make_unique<nn::Adam>(actor_.net().params(), cfg_.lr);
  q1_opt_ = std::make_unique<nn::Adam>(q1_.params(), cfg_.lr);
  q2_opt_ = std::make_unique<nn::Adam>(q2_.params(), cfg_.lr);
}

std::vector<double> SacAgent::act(const std::vector<double>& obs, Rng& rng,
                                  bool deterministic) {
  HERO_CHECK(obs.size() == obs_dim_);
  return actor_.act1(obs, rng, deterministic);
}

SacUpdateStats SacAgent::observe(std::vector<double> obs, std::vector<double> action,
                                 double reward, std::vector<double> next_obs,
                                 bool done, Rng& rng) {
  buffer_.add({std::move(obs), std::move(action), reward, std::move(next_obs), done});
  ++total_steps_;
  if (total_steps_ % cfg_.update_every == 0) return update(rng);
  return {};
}

SacUpdateStats SacAgent::update(Rng& rng) {
  if (!buffer_.ready(std::max(cfg_.batch, cfg_.warmup_steps))) return {};
  OBS_PHASE("update");
  if (obs::metrics_enabled()) {
    obs::Registry::instance().counter("sac.updates").inc();
  }
  SacUpdateStats stats;
  stats.updated = true;

  const auto batch = [&] {
    OBS_PHASE("replay");
    return buffer_.sample(cfg_.batch, rng);
  }();
  const std::size_t B = batch.size();
  const std::size_t k = actor_.action_dim();

  // Assemble the batch straight into reusable matrices (no row-vector stack).
  obs_m_.resize(B, obs_dim_);
  next_m_.resize(B, obs_dim_);
  act_m_.resize(B, k);
  for (std::size_t i = 0; i < B; ++i) {
    const Transition& t = *batch[i];
    std::copy(t.obs.begin(), t.obs.end(), obs_m_.row_ptr(i));
    std::copy(t.next_obs.begin(), t.next_obs.end(), next_m_.row_ptr(i));
    std::copy(t.action.begin(), t.action.end(), act_m_.row_ptr(i));
  }

  // ----- critic update: y = r + γ(1−d)[min Q'(s',ã') − α log π(ã'|s')] -----
  actor_.sample_into(next_m_, rng, /*deterministic=*/false, next_sample_);
  next_m_.hcat_into(next_sample_.actions, next_in_);
  const nn::Matrix& tq1 = q1_target_.forward(next_in_);
  const nn::Matrix& tq2 = q2_target_.forward(next_in_);
  target_.resize(B, 1);
  for (std::size_t i = 0; i < B; ++i) {
    const double soft_v =
        std::min(tq1(i, 0), tq2(i, 0)) - cfg_.alpha * next_sample_.log_prob[i];
    target_(i, 0) =
        batch[i]->reward + (batch[i]->done ? 0.0 : cfg_.gamma * soft_v);
  }
  HERO_DCHECK_FINITE(target_, "SacAgent::update critic TD target");

  obs_m_.hcat_into(act_m_, critic_in_);
  for (auto [q, opt] : {std::pair<nn::Mlp*, nn::Adam*>{&q1_, q1_opt_.get()},
                        std::pair<nn::Mlp*, nn::Adam*>{&q2_, q2_opt_.get()}}) {
    const nn::Matrix& pred = q->forward(critic_in_);
    stats.critic_loss += 0.5 * nn::mse_loss_into(pred, target_, q_grad_);
    q->zero_grad();
    q->backward(q_grad_);
    q->clip_grad_norm(cfg_.grad_clip);
    opt->step();
  }

  // ----- actor update: minimize E[α log π(ã|s) − min Q(s, ã)] -----
  actor_.sample_into(obs_m_, rng, /*deterministic=*/false, sample_);
  obs_m_.hcat_into(sample_.actions, critic_in_);
  const nn::Matrix& aq1 = q1_.forward(critic_in_);
  const nn::Matrix& aq2 = q2_.forward(critic_in_);

  // dL/dQ = −1/B through whichever critic attains the minimum per sample.
  const double inv_b = 1.0 / static_cast<double>(B);
  dq1_.resize(B, 1);
  dq2_.resize(B, 1);
  dq1_.fill(0.0);
  dq2_.fill(0.0);
  double actor_loss = 0.0;
  for (std::size_t i = 0; i < B; ++i) {
    const double qmin = std::min(aq1(i, 0), aq2(i, 0));
    actor_loss += (cfg_.alpha * sample_.log_prob[i] - qmin) * inv_b;
    (aq1(i, 0) <= aq2(i, 0) ? dq1_ : dq2_)(i, 0) = -inv_b;
  }
  stats.actor_loss = actor_loss;

  // Input-gradient-only backward: the critics are frozen in this step, so
  // skip their dW/db accumulation entirely (no zero_grad bracketing needed).
  const nn::Matrix& din1 = q1_.backward_input(dq1_);
  const nn::Matrix& din2 = q2_.backward_input(dq2_);
  din1.col_slice_into(obs_dim_, obs_dim_ + k, dL_da_);
  din2.col_slice_into(obs_dim_, obs_dim_ + k, dL_da_, /*accumulate=*/true);

  HERO_DCHECK_MSG(std::isfinite(actor_loss),
                  "SacAgent::update non-finite actor loss " << actor_loss);
  HERO_DCHECK_FINITE(dL_da_, "SacAgent::update dL/da");
  dL_dlogp_.assign(B, cfg_.alpha * inv_b);
  actor_.net().zero_grad();
  actor_.backward(sample_, dL_da_, dL_dlogp_);
  actor_.net().clip_grad_norm(cfg_.grad_clip);
  actor_opt_->step();

  double ent = 0.0;
  for (double lp : sample_.log_prob) ent -= lp;
  stats.entropy = ent * inv_b;

  // ----- target networks -----
  q1_target_.soft_update_from(q1_, cfg_.tau);
  q2_target_.soft_update_from(q2_, cfg_.tau);
  return stats;
}

}  // namespace hero::algos
