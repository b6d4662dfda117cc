#include "algos/ddpg.h"

#include <algorithm>

#include "nn/losses.h"
#include "rl/exploration.h"

namespace hero::algos {

DdpgAgent::DdpgAgent(std::size_t obs_dim, std::vector<double> action_lo,
                     std::vector<double> action_hi, const DdpgConfig& cfg, Rng& rng)
    : cfg_(cfg),
      obs_dim_(obs_dim),
      actor_(obs_dim, cfg.hidden, action_lo, action_hi, rng),
      actor_target_(actor_),
      q_(obs_dim + action_lo.size(), cfg.hidden, 1, rng),
      q_target_(q_),
      buffer_(cfg.buffer_capacity) {
  actor_opt_ = std::make_unique<nn::Adam>(actor_.net().params(), cfg_.lr_actor);
  q_opt_ = std::make_unique<nn::Adam>(q_.params(), cfg_.lr_critic);
}

std::vector<double> DdpgAgent::act(const std::vector<double>& obs, Rng& rng,
                                   bool explore) {
  std::vector<double> a = actor_.act1(obs);
  if (explore) {
    a = rl::gaussian_perturb(a, actor_.lo(), actor_.hi(), cfg_.noise_stddev, rng);
  }
  return a;
}

DdpgUpdateStats DdpgAgent::observe(std::vector<double> obs, std::vector<double> action,
                                   double reward, std::vector<double> next_obs,
                                   bool done, Rng& rng) {
  buffer_.add({std::move(obs), std::move(action), reward, std::move(next_obs), done});
  ++total_steps_;
  if (total_steps_ % cfg_.update_every == 0) return update(rng);
  return {};
}

DdpgUpdateStats DdpgAgent::update(Rng& rng) {
  if (!buffer_.ready(std::max(cfg_.batch, cfg_.warmup_steps))) return {};
  DdpgUpdateStats stats;
  stats.updated = true;

  auto batch = buffer_.sample(cfg_.batch, rng);
  const std::size_t B = batch.size();
  const std::size_t k = actor_.action_dim();

  std::vector<std::vector<double>> obs_rows, next_rows, act_rows;
  for (const auto* t : batch) {
    obs_rows.push_back(t->obs);
    next_rows.push_back(t->next_obs);
    act_rows.push_back(t->action);
  }
  nn::Matrix obs_m = nn::Matrix::stack_rows(obs_rows);
  nn::Matrix next_m = nn::Matrix::stack_rows(next_rows);
  nn::Matrix act_m = nn::Matrix::stack_rows(act_rows);

  // Critic: y = r + γ(1−d) Q'(s', μ'(s')).
  nn::Matrix next_a = actor_target_.forward(next_m);
  nn::Matrix tq = q_target_.forward(next_m.hcat(next_a));
  nn::Matrix target(B, 1);
  for (std::size_t i = 0; i < B; ++i) {
    target(i, 0) = batch[i]->reward + (batch[i]->done ? 0.0 : cfg_.gamma * tq(i, 0));
  }
  nn::Matrix pred = q_.forward(obs_m.hcat(act_m));
  auto loss = nn::mse_loss(pred, target);
  stats.critic_loss = loss.loss;
  q_.zero_grad();
  q_.backward_params(loss.grad);
  q_.clip_grad_norm(cfg_.grad_clip);
  q_opt_->step();

  // Actor: maximize Q(s, μ(s)) — gradient ascent via dQ/da chain rule.
  nn::Matrix cur_a = actor_.forward(obs_m);
  nn::Matrix qa = q_.forward(obs_m.hcat(cur_a));
  stats.actor_objective = qa.sum() / static_cast<double>(B);
  nn::Matrix dq(B, 1, -1.0 / static_cast<double>(B));  // minimize −Q
  // Input-gradient-only: the critic is frozen in the actor step, so skip its
  // parameter-gradient accumulation (nothing to discard afterwards).
  nn::Matrix din = q_.backward_input(dq);
  actor_.net().zero_grad();
  actor_.backward(din.col_slice(obs_dim_, obs_dim_ + k));
  actor_.net().clip_grad_norm(cfg_.grad_clip);
  actor_opt_->step();

  actor_target_.net().soft_update_from(actor_.net(), cfg_.tau);
  q_target_.soft_update_from(q_, cfg_.tau);
  return stats;
}

}  // namespace hero::algos
