#include "algos/dqn.h"

#include <algorithm>

#include "nn/losses.h"
#include "obs/obs.h"
#include "rl/exploration.h"

namespace hero::algos {

IndependentDqnTrainer::IndependentDqnTrainer(const sim::Scenario& scenario,
                                             const DqnConfig& cfg, Rng& rng)
    : scenario_(scenario),
      cfg_(cfg),
      world_(scenario.config),
      grid_(rl::ActionGrid::standard()) {
  const std::size_t obs_dim = baseline_obs_dim(world_);
  const int n = world_.num_learners();
  for (int i = 0; i < n; ++i) {
    q_.emplace_back(obs_dim, cfg_.hidden, grid_.size(), rng);
    q_target_.emplace_back(q_.back());
    opt_.push_back(std::make_unique<nn::Adam>(q_.back().params(), cfg_.lr));
    buffers_.emplace_back(cfg_.buffer_capacity);
    per_buffers_.emplace_back(cfg_.buffer_capacity, cfg_.per_alpha, cfg_.per_beta0);
  }
  scratch_.resize(static_cast<std::size_t>(n));
  if (cfg_.num_workers > 1) {
    pool_ = std::make_unique<runtime::ThreadPool>(
        static_cast<std::size_t>(cfg_.num_workers));
  }
}

void IndependentDqnTrainer::act_rows_into(const rl::ObsBatch& batch,
                                          Rng* const* rngs, bool explore,
                                          sim::TwistCmd* cmds_out) {
  OBS_PHASE("act_rows");
  const int n = batch.num_learners();
  HERO_CHECK_MSG(n == world_.num_learners(),
                 "batch has " << n << " learners, trainer has "
                              << world_.num_learners());
  active_slots(batch, act_slots_);
  if (act_slots_.empty()) return;
  const double eps = explore ? rl::LinearSchedule(cfg_.eps_start, cfg_.eps_end,
                                                  cfg_.eps_decay_steps)
                                   .value(total_steps_)
                             : 0.0;
  for (int k = 0; k < n; ++k) {
    gather_baseline_rows(batch, k, act_slots_, act_obs_);
    const nn::Matrix& qs = q_[static_cast<std::size_t>(k)].forward(act_obs_);
    for (std::size_t r = 0; r < act_slots_.size(); ++r) {
      const std::size_t s = act_slots_[r];
      std::size_t a;
      if (explore && rngs[s]->chance(eps)) {
        a = rngs[s]->index(grid_.size());
      } else {
        const double* row = qs.row_ptr(r);
        a = static_cast<std::size_t>(
            std::max_element(row, row + qs.cols()) - row);
      }
      cmds_out[s * static_cast<std::size_t>(n) + static_cast<std::size_t>(k)] =
          grid_.decode(a);
    }
  }
}

double IndependentDqnTrainer::update_math(int agent,
                                          const std::vector<const Transition*>& batch,
                                          const std::vector<double>* weights,
                                          UpdateScratch& s,
                                          std::vector<double>* out_td) {
  const std::size_t ai = static_cast<std::size_t>(agent);
  const std::size_t B = batch.size();
  const std::size_t obs_dim = q_[ai].in_dim();
  s.obs_m.resize(B, obs_dim);
  s.next_m.resize(B, obs_dim);
  s.actions.resize(B);
  for (std::size_t i = 0; i < B; ++i) {
    const Transition& t = *batch[i];
    std::copy(t.obs.begin(), t.obs.end(), s.obs_m.row_ptr(i));
    std::copy(t.next_obs.begin(), t.next_obs.end(), s.next_m.row_ptr(i));
    s.actions[i] = t.action;
  }

  // TD target: r + γ·max_a' Q_target(s', a') for non-terminal transitions.
  const nn::Matrix& next_q = q_target_[ai].forward(s.next_m);
  s.targets.resize(B);
  for (std::size_t i = 0; i < B; ++i) {
    double mx = next_q(i, 0);
    for (std::size_t a = 1; a < grid_.size(); ++a) mx = std::max(mx, next_q(i, a));
    s.targets[i] = batch[i]->reward + (batch[i]->done ? 0.0 : cfg_.gamma * mx);
  }

  auto& net = q_[ai];
  const nn::Matrix& pred = net.forward(s.obs_m);
  const double loss = nn::huber_loss_selected_into(pred, s.actions, s.targets, 1.0,
                                                   weights, s.loss_grad);
  if (out_td) {
    // Capture TD errors before backward/step invalidates `pred`.
    out_td->resize(B);
    for (std::size_t i = 0; i < B; ++i) {
      (*out_td)[i] = pred(i, s.actions[i]) - s.targets[i];
    }
  }
  net.zero_grad();
  net.backward_params(s.loss_grad);
  net.clip_grad_norm(cfg_.grad_clip);
  opt_[ai]->step();
  q_target_[ai].soft_update_from(net, cfg_.tau);
  return loss;
}

double IndependentDqnTrainer::update_agent(int agent, Rng& rng) {
  OBS_PHASE("agent_update");
  const std::size_t ai = static_cast<std::size_t>(agent);
  const std::size_t have =
      cfg_.prioritized ? per_buffers_[ai].size() : buffers_[ai].size();
  if (have < std::max(cfg_.batch, cfg_.warmup_steps)) return 0.0;
  ++updates_;

  // Gather the batch (uniform or prioritized with importance weights).
  std::vector<const Transition*> batch;
  rl::PrioritizedSample psample;
  std::vector<double>* weights = nullptr;
  if (cfg_.prioritized) {
    auto& per = per_buffers_[ai];
    per.set_beta(cfg_.per_beta0 +
                 (1.0 - cfg_.per_beta0) *
                     std::min(1.0, static_cast<double>(updates_) /
                                       static_cast<double>(cfg_.per_beta_steps)));
    psample = per.sample(cfg_.batch, rng);
    batch.reserve(psample.indices.size());
    for (std::size_t idx : psample.indices) batch.push_back(&per.at(idx));
    weights = &psample.weights;
  } else {
    batch = buffers_[ai].sample(cfg_.batch, rng);
  }

  UpdateScratch& s = scratch_[ai];
  const double loss =
      update_math(agent, batch, weights, s, cfg_.prioritized ? &s.td : nullptr);
  if (cfg_.prioritized) {
    per_buffers_[ai].update_priorities(psample.indices, s.td);
  }
  return loss;
}

void IndependentDqnTrainer::update_round(Rng& rng) {
  OBS_PHASE("update");
  const int n = world_.num_learners();
  // Prioritized replay stays serial: the β anneal and priority rewrites are
  // keyed to the global update order.
  if (!pool_ || cfg_.prioritized) {
    for (int k = 0; k < n; ++k) update_agent(k, rng);
    return;
  }
  // Draw every batch serially in agent order (the only RNG consumer), then
  // fan the per-agent gradient math out — each task touches only
  // agent-indexed nets/optimizers/scratch, so the result is bitwise
  // identical to the serial loop.
  sampled_.assign(static_cast<std::size_t>(n), {});
  const std::size_t need = std::max(cfg_.batch, cfg_.warmup_steps);
  for (int k = 0; k < n; ++k) {
    const std::size_t ki = static_cast<std::size_t>(k);
    if (buffers_[ki].size() < need) continue;
    ++updates_;
    sampled_[ki] = buffers_[ki].sample(cfg_.batch, rng);
  }
  pool_->parallel_for(static_cast<std::size_t>(n), [&](std::size_t k) {
    if (sampled_[k].empty()) return;
    update_math(static_cast<int>(k), sampled_[k], nullptr, scratch_[k], nullptr);
  });
}

void IndependentDqnTrainer::store_and_update(const rl::StepView& tick, Rng& rng) {
  const int n = world_.num_learners();
  for (std::size_t s = 0; s < tick.before.count(); ++s) {
    if (!tick.before.slot(s).active) continue;
    for (int k = 0; k < n; ++k) {
      const std::size_t ki = static_cast<std::size_t>(k);
      const std::size_t idx = s * static_cast<std::size_t>(n) + ki;
      Transition t{baseline_row(tick.before, s, k), grid_.encode(tick.cmds[idx]),
                   tick.result.reward[idx], baseline_row(tick.after, s, k),
                   tick.result.done[s] != 0};
      if (cfg_.prioritized) {
        per_buffers_[ki].add(std::move(t));
      } else {
        buffers_[ki].add(std::move(t));
      }
    }
  }
  // The ε schedule (act_rows_into) and the gradient cadence both count ticks:
  // env steps at width 1, synchronized batch steps in lockstep rounds
  // (docs/BATCHING.md §cadence).
  ++total_steps_;
  if (total_steps_ % cfg_.update_every == 0) update_round(rng);
}

void IndependentDqnTrainer::train(int episodes, Rng& rng, const EpisodeHook& hook) {
  rl::EpisodeLoop loop = training_loop(*this, scenario_, "dqn", hook);
  loop.on_step = [&](const rl::StepView& tick) { store_and_update(tick, rng); };
  run_training(loop, world_, cfg_.batch_envs, episodes, rng);
}

}  // namespace hero::algos
