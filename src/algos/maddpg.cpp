#include "algos/maddpg.h"

#include <algorithm>

#include "nn/losses.h"
#include "obs/obs.h"

namespace hero::algos {

MaddpgTrainer::MaddpgTrainer(const sim::Scenario& scenario, const MaddpgConfig& cfg,
                             Rng& rng)
    : scenario_(scenario),
      cfg_(cfg),
      world_(scenario.config),
      n_(world_.num_learners()),
      obs_dim_(baseline_obs_dim(world_)),
      act_dim_(primitive_lo().size()),
      buffer_(cfg.buffer_capacity) {
  const std::size_t joint = static_cast<std::size_t>(n_) * (obs_dim_ + act_dim_);
  for (int i = 0; i < n_; ++i) {
    actors_.emplace_back(obs_dim_, cfg_.hidden, primitive_lo(), primitive_hi(), rng);
    actor_targets_.emplace_back(actors_.back());
    critics_.emplace_back(joint, cfg_.hidden, 1, rng);
    critic_targets_.emplace_back(critics_.back());
    actor_opt_.push_back(std::make_unique<nn::Adam>(actors_.back().net().params(),
                                                    cfg_.lr * 0.5));
    critic_opt_.push_back(std::make_unique<nn::Adam>(critics_.back().params(), cfg_.lr));
  }
  scratch_.resize(static_cast<std::size_t>(n_));
  if (cfg_.num_workers > 1) {
    pool_ = std::make_unique<runtime::ThreadPool>(
        static_cast<std::size_t>(cfg_.num_workers));
  }
}

void MaddpgTrainer::for_agents(const std::function<void(std::size_t)>& fn) {
  if (pool_) {
    pool_->parallel_for(static_cast<std::size_t>(n_), fn);
  } else {
    for (std::size_t i = 0; i < static_cast<std::size_t>(n_); ++i) fn(i);
  }
}

void MaddpgTrainer::act_rows_into(const rl::ObsBatch& batch, Rng* const* rngs,
                                  bool explore, sim::TwistCmd* cmds_out) {
  OBS_PHASE("act_rows");
  const int n = batch.num_learners();
  HERO_CHECK_MSG(n == n_, "batch has " << n << " learners, trainer has " << n_);
  active_slots(batch, act_slots_);
  if (act_slots_.empty()) return;
  for (int k = 0; k < n; ++k) {
    auto& actor = actors_[static_cast<std::size_t>(k)];
    const auto& lo = actor.lo();
    const auto& hi = actor.hi();
    gather_baseline_rows(batch, k, act_slots_, act_obs_);
    // The forward buffer belongs to actor k and is fully consumed before the
    // next agent's forward.
    const nn::Matrix& a = actor.forward(act_obs_);
    for (std::size_t r = 0; r < act_slots_.size(); ++r) {
      const std::size_t s = act_slots_[r];
      const double* row = a.row_ptr(r);
      double lin = row[0];
      double ang = row[1];
      if (explore) {
        lin = std::clamp(lin + rngs[s]->normal(0.0, cfg_.act_noise), lo[0], hi[0]);
        ang = std::clamp(ang + rngs[s]->normal(0.0, cfg_.act_noise), lo[1], hi[1]);
      }
      cmds_out[s * static_cast<std::size_t>(n) + static_cast<std::size_t>(k)] = {
          lin, ang};
    }
  }
}

void MaddpgTrainer::update(Rng& rng) {
  OBS_PHASE("update");
  if (!buffer_.ready(std::max(cfg_.batch, cfg_.warmup_steps))) return;
  auto batch = buffer_.sample(cfg_.batch, rng);
  const std::size_t B = batch.size();
  const std::size_t N = static_cast<std::size_t>(n_);

  // Joint matrices reused by every agent's update, assembled directly into
  // persistent scratch (no per-row flatten vectors).
  joint_obs_.resize(B, N * obs_dim_);
  joint_next_obs_.resize(B, N * obs_dim_);
  joint_act_.resize(B, N * act_dim_);
  for (std::size_t b = 0; b < B; ++b) {
    const Transition& t = *batch[b];
    double* orow = joint_obs_.row_ptr(b);
    double* nrow = joint_next_obs_.row_ptr(b);
    double* arow = joint_act_.row_ptr(b);
    for (std::size_t j = 0; j < N; ++j) {
      std::copy(t.obs[j].begin(), t.obs[j].end(), orow + j * obs_dim_);
      std::copy(t.next_obs[j].begin(), t.next_obs[j].end(), nrow + j * obs_dim_);
      std::copy(t.actions[j].begin(), t.actions[j].end(), arow + j * act_dim_);
    }
  }

  // Target joint action a' = (μ'_1(o'_1), ..., μ'_N(o'_N)). Each agent's
  // target actor reads its own scratch and writes a disjoint column block —
  // index-addressed, so the fan-out below cannot reorder results.
  joint_next_act_.resize(B, N * act_dim_);
  for_agents([&](std::size_t j) {
    nn::Matrix& obs_j = scratch_[j].obs_j;
    obs_j.resize(B, obs_dim_);
    for (std::size_t b = 0; b < B; ++b) {
      const auto& o = batch[b]->next_obs[j];
      std::copy(o.begin(), o.end(), obs_j.row_ptr(b));
    }
    const nn::Matrix& aj = actor_targets_[j].forward(obs_j);
    for (std::size_t b = 0; b < B; ++b) {
      double* row = joint_next_act_.row_ptr(b) + j * act_dim_;
      const double* arow = aj.row_ptr(b);
      for (std::size_t c = 0; c < act_dim_; ++c) row[c] = arow[c];
    }
  });
  joint_next_obs_.hcat_into(joint_next_act_, next_in_);
  joint_obs_.hcat_into(joint_act_, cur_in_);

  for_agents([&](std::size_t i) { update_agent(static_cast<int>(i), batch); });
}

void MaddpgTrainer::update_agent(int i, const std::vector<const Transition*>& batch) {
  const std::size_t B = batch.size();
  const std::size_t N = static_cast<std::size_t>(n_);
  const std::size_t ii = static_cast<std::size_t>(i);
  AgentScratch& s = scratch_[ii];
  auto& critic = critics_[ii];

  // Critic i: y = r_i + γ(1−d) Q'_i(o', a').
  const nn::Matrix& tq = critic_targets_[ii].forward(next_in_);
  s.target.resize(B, 1);
  for (std::size_t b = 0; b < B; ++b) {
    s.target(b, 0) = batch[b]->rewards[ii] +
                     (batch[b]->done ? 0.0 : cfg_.gamma * tq(b, 0));
  }
  const nn::Matrix& pred = critic.forward(cur_in_);
  nn::mse_loss_into(pred, s.target, s.q_grad);
  critic.zero_grad();
  critic.backward_params(s.q_grad);
  critic.clip_grad_norm(cfg_.grad_clip);
  critic_opt_[ii]->step();

  // Actor i: ascend Q_i(o, [a_{-i} from buffer, a_i = μ_i(o_i)]).
  s.obs_j.resize(B, obs_dim_);
  for (std::size_t b = 0; b < B; ++b) {
    const auto& o = batch[b]->obs[ii];
    std::copy(o.begin(), o.end(), s.obs_j.row_ptr(b));
  }
  const nn::Matrix& a_i = actors_[ii].forward(s.obs_j);
  // [joint_obs | joint_act] with agent i's action block replaced by μ_i.
  s.mixed_in.copy_from(cur_in_);
  const std::size_t a_off = N * obs_dim_ + ii * act_dim_;
  for (std::size_t b = 0; b < B; ++b) {
    double* row = s.mixed_in.row_ptr(b) + a_off;
    const double* arow = a_i.row_ptr(b);
    for (std::size_t c = 0; c < act_dim_; ++c) row[c] = arow[c];
  }
  critic.forward(s.mixed_in);
  s.dq.resize(B, 1);
  s.dq.fill(-1.0 / static_cast<double>(B));
  // The critic is frozen here — only dQ/da is needed, so skip its
  // parameter-gradient accumulation.
  const nn::Matrix& din = critic.backward_input(s.dq);
  din.col_slice_into(a_off, a_off + act_dim_, s.da);
  auto& actor = actors_[ii];
  actor.net().zero_grad();
  actor.backward(s.da);
  actor.net().clip_grad_norm(cfg_.grad_clip);
  actor_opt_[ii]->step();

  actor_targets_[ii].net().soft_update_from(actor.net(), cfg_.tau);
  critic_targets_[ii].soft_update_from(critic, cfg_.tau);
}

void MaddpgTrainer::store_and_update(const rl::StepView& tick, Rng& rng) {
  const std::size_t N = static_cast<std::size_t>(n_);
  for (std::size_t s = 0; s < tick.before.count(); ++s) {
    if (!tick.before.slot(s).active) continue;
    Transition t;
    for (int k = 0; k < n_; ++k) {
      const sim::TwistCmd& cmd = tick.cmds[s * N + static_cast<std::size_t>(k)];
      t.obs.push_back(baseline_row(tick.before, s, k));
      t.actions.push_back({cmd.linear, cmd.angular});
      t.next_obs.push_back(baseline_row(tick.after, s, k));
    }
    const double* reward = tick.result.reward.data() + s * N;
    t.rewards.assign(reward, reward + N);
    t.done = tick.result.done[s] != 0;
    buffer_.add(std::move(t));
  }
  ++total_steps_;
  if (total_steps_ % cfg_.update_every == 0) update(rng);
}

void MaddpgTrainer::train(int episodes, Rng& rng, const EpisodeHook& hook) {
  rl::EpisodeLoop loop = training_loop(*this, scenario_, "maddpg", hook);
  loop.on_step = [&](const rl::StepView& tick) { store_and_update(tick, rng); };
  run_training(loop, world_, cfg_.batch_envs, episodes, rng);
}

}  // namespace hero::algos
