#include "algos/dqn.h"

#include <algorithm>

#include "common/stats.h"
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
  batched_act(batch, rngs, explore, cmds_out);
}

void IndependentDqnTrainer::batched_act(const rl::ObsBatch& batch,
                                        Rng* const* rngs, bool explore,
                                        sim::TwistCmd* cmds_out) {
  OBS_PHASE("act_rows");
  const int n = batch.num_learners();
  HERO_CHECK_MSG(n == world_.num_learners(),
                 "batch has " << n << " learners, trainer has "
                              << world_.num_learners());
  act_slots_.clear();
  for (std::size_t s = 0; s < batch.count(); ++s) {
    if (batch.slot(s).active) act_slots_.push_back(s);
  }
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

std::size_t IndependentDqnTrainer::select_action(int agent,
                                                 const std::vector<double>& obs,
                                                 Rng& rng, bool explore) {
  if (explore) {
    const double eps = rl::LinearSchedule(cfg_.eps_start, cfg_.eps_end,
                                          cfg_.eps_decay_steps)
                           .value(total_steps_);
    if (rng.chance(eps)) return rng.index(grid_.size());
  }
  const auto qs = q_[static_cast<std::size_t>(agent)].forward1(obs);
  return static_cast<std::size_t>(std::max_element(qs.begin(), qs.end()) - qs.begin());
}

std::vector<sim::TwistCmd> IndependentDqnTrainer::act(const sim::LaneWorld& world,
                                                      Rng& rng, bool explore) {
  std::vector<sim::TwistCmd> cmds;
  for (int k = 0; k < world.num_learners(); ++k) {
    const int vi = world.learners()[static_cast<std::size_t>(k)];
    cmds.push_back(grid_.decode(select_action(k, baseline_obs(world, vi), rng, explore)));
  }
  return cmds;
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
  net.backward(s.loss_grad);
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

void IndependentDqnTrainer::train_batched(int episodes, Rng& rng,
                                          const EpisodeHook& hook) {
  const int n = world_.num_learners();
  const int envs = std::max(cfg_.batch_envs, 1);
  const std::size_t obs_dim = baseline_obs_dim(world_);
  // One engine draw keys the run's episode streams (lane i of a round over
  // [first, first+count) draws stream_rng(root, first+i)).
  const std::uint64_t root = rng.engine()();
  if (!bworld_) {
    bworld_ = std::make_unique<sim::BatchLaneWorld>(scenario_.config, envs);
    bsched_ = std::make_unique<runtime::BatchRoundScheduler>(
        static_cast<std::size_t>(envs));
  }

  const std::size_t slots =
      static_cast<std::size_t>(envs) * static_cast<std::size_t>(n);
  std::vector<rl::EpisodeStats> stats(static_cast<std::size_t>(envs));
  std::vector<sim::TwistCmd> cmds(slots);
  std::vector<std::size_t> actions(slots), greedy(slots);
  std::vector<std::size_t> live;
  live.reserve(static_cast<std::size_t>(envs));
  sim::BatchStepResult out;
  nn::Matrix obs_now(slots, obs_dim), obs_next(slots, obs_dim), qin;
  const auto row = [&](std::size_t lane, int k) {
    return lane * static_cast<std::size_t>(n) + static_cast<std::size_t>(k);
  };

  int done_eps = 0;
  while (done_eps < episodes) {
    OBS_PHASE("batched_round");
    const std::size_t round = std::min<std::size_t>(
        static_cast<std::size_t>(envs), static_cast<std::size_t>(episodes - done_eps));
    bsched_->begin_round(root, static_cast<std::size_t>(done_eps), round);
    for (std::size_t lane = 0; lane < round; ++lane) {
      bworld_->reset_env(static_cast<int>(lane), bsched_->rng(lane));
      stats[lane] = rl::EpisodeStats{};
      for (int k = 0; k < n; ++k) {
        const int vi = world_.learners()[static_cast<std::size_t>(k)];
        baseline_obs_into(*bworld_, static_cast<int>(lane), vi,
                          obs_now.row_ptr(row(lane, k)));
      }
    }

    while (bsched_->live() > 0) {
      live.clear();
      for (std::size_t lane = 0; lane < round; ++lane) {
        if (bsched_->active(lane)) live.push_back(lane);
      }

      // Greedy actions: one batched Q forward per agent over every live
      // lane (the serial path's per-env forward1, fused).
      for (int k = 0; k < n; ++k) {
        qin.resize(live.size(), obs_dim);
        for (std::size_t r = 0; r < live.size(); ++r) {
          const double* src = obs_now.row_ptr(row(live[r], k));
          std::copy(src, src + obs_dim, qin.row_ptr(r));
        }
        const nn::Matrix& qs = q_[static_cast<std::size_t>(k)].forward(qin);
        for (std::size_t r = 0; r < live.size(); ++r) {
          std::size_t best = 0;
          for (std::size_t a = 1; a < grid_.size(); ++a) {
            if (qs(r, a) > qs(r, best)) best = a;
          }
          greedy[row(live[r], k)] = best;
        }
      }
      // ε draws lane-ascending then agent-ascending from each lane's own
      // stream — the serial per-env draw order. The ε schedule advances per
      // synchronized batch step (one batch step ≈ live-lane env steps).
      const double eps = rl::LinearSchedule(cfg_.eps_start, cfg_.eps_end,
                                            cfg_.eps_decay_steps)
                             .value(total_steps_);
      for (std::size_t lane : live) {
        Rng& lrng = bsched_->rng(lane);
        for (int k = 0; k < n; ++k) {
          const std::size_t idx = row(lane, k);
          actions[idx] = lrng.chance(eps) ? lrng.index(grid_.size()) : greedy[idx];
          cmds[idx] = grid_.decode(actions[idx]);
        }
      }

      bworld_->step_all(cmds.data(), bsched_->rng_ptrs(), bsched_->active_mask(),
                        out);
      ++total_steps_;

      for (std::size_t lane : live) {
        double sum = 0.0;
        for (int k = 0; k < n; ++k) {
          const int vi = world_.learners()[static_cast<std::size_t>(k)];
          const std::size_t idx = row(lane, k);
          baseline_obs_into(*bworld_, static_cast<int>(lane), vi,
                            obs_next.row_ptr(idx));
          const double r = out.reward[idx];
          sum += r;
          const double* o0 = obs_now.row_ptr(idx);
          const double* o1 = obs_next.row_ptr(idx);
          Transition t{std::vector<double>(o0, o0 + obs_dim), actions[idx], r,
                       std::vector<double>(o1, o1 + obs_dim), out.done[lane] != 0};
          if (cfg_.prioritized) {
            per_buffers_[static_cast<std::size_t>(k)].add(std::move(t));
          } else {
            buffers_[static_cast<std::size_t>(k)].add(std::move(t));
          }
        }
        stats[lane].team_reward += sum / static_cast<double>(n);
        if (out.collision[lane] != 0) stats[lane].collision = true;
      }

      // Gradient cadence in batch steps — the batching throughput lever
      // (docs/BATCHING.md §cadence).
      if (total_steps_ % cfg_.update_every == 0) update_round(rng);

      for (std::size_t lane : live) {
        if (out.done[lane] == 0) continue;
        const int e = static_cast<int>(lane);
        stats[lane].steps = bworld_->steps(e);
        stats[lane].success =
            !stats[lane].collision &&
            bworld_->lane(e, scenario_.merger_index) == scenario_.merger_target_lane;
        double speed = 0.0;
        for (int vi : world_.learners()) speed += bworld_->mean_speed(e, vi);
        stats[lane].mean_speed = speed / static_cast<double>(n);
        bsched_->finish(lane);
      }
      std::swap(obs_now, obs_next);
    }

    for (std::size_t lane = 0; lane < round; ++lane) {
      const int ep = done_eps + static_cast<int>(lane);
      record_episode("dqn", ep, stats[lane]);
      if (hook) hook(ep, stats[lane]);
    }
    done_eps += static_cast<int>(round);
  }
}

void IndependentDqnTrainer::train(int episodes, Rng& rng, const EpisodeHook& hook) {
  if (cfg_.batch_envs > 0) {
    train_batched(episodes, rng, hook);
    return;
  }
  for (int ep = 0; ep < episodes; ++ep) {
    OBS_PHASE("episode");
    world_.reset(rng);
    rl::EpisodeStats stats;

    while (!world_.done()) {
      const int n = world_.num_learners();
      std::vector<std::vector<double>> obs(static_cast<std::size_t>(n));
      std::vector<std::size_t> actions(static_cast<std::size_t>(n));
      std::vector<sim::TwistCmd> cmds;
      for (int k = 0; k < n; ++k) {
        const int vi = world_.learners()[static_cast<std::size_t>(k)];
        obs[static_cast<std::size_t>(k)] = baseline_obs(world_, vi);
        actions[static_cast<std::size_t>(k)] =
            select_action(k, obs[static_cast<std::size_t>(k)], rng, /*explore=*/true);
        cmds.push_back(grid_.decode(actions[static_cast<std::size_t>(k)]));
      }

      auto result = world_.step(cmds, rng);
      stats.team_reward += mean_of(result.reward);
      if (result.collision) stats.collision = true;
      ++total_steps_;

      for (int k = 0; k < n; ++k) {
        const int vi = world_.learners()[static_cast<std::size_t>(k)];
        Transition t{std::move(obs[static_cast<std::size_t>(k)]),
                     actions[static_cast<std::size_t>(k)],
                     result.reward[static_cast<std::size_t>(k)],
                     baseline_obs(world_, vi), result.done};
        if (cfg_.prioritized) {
          per_buffers_[static_cast<std::size_t>(k)].add(std::move(t));
        } else {
          buffers_[static_cast<std::size_t>(k)].add(std::move(t));
        }
      }

      if (total_steps_ % cfg_.update_every == 0) update_round(rng);
    }

    stats.steps = world_.steps();
    stats.success = !stats.collision &&
                    world_.lane(scenario_.merger_index) == scenario_.merger_target_lane;
    double speed = 0.0;
    for (int vi : world_.learners()) speed += world_.mean_speed(vi);
    stats.mean_speed = speed / static_cast<double>(world_.num_learners());
    record_episode("dqn", ep, stats);
    if (hook) hook(ep, stats);
  }
}

}  // namespace hero::algos
