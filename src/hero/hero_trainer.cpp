#include "hero/hero_trainer.h"

#include <algorithm>
#include <string>

#include "common/stats.h"
#include "hero/checkpoint.h"
#include "nn/serialize.h"
#include "obs/obs.h"
#include "rl/episode_runner.h"
#include "sim/scenario.h"

namespace hero::core {

namespace {
// Replay indices one block of update rounds may hold drawn ahead (8 bytes
// each, so 1 MiB). A block is as many whole rounds as fit, and at least
// one: coop3 draws 576 indices a round, so its whole learn round is one
// block; dense_traffic at V = 64 draws 147456, so each round is a block.
constexpr std::size_t kDrawBudget = std::size_t{1} << 17;
}  // namespace

HeroTrainer::HeroTrainer(const sim::Scenario& scenario, const HeroConfig& cfg,
                         Rng& rng)
    : scenario_(scenario),
      cfg_(cfg),
      world_(scenario.config),
      skills_(world_.low_level_obs_dim(), cfg.skill, rng) {
  HERO_CHECK_MSG(cfg_.update_every > 0, "update_every must be positive");
  const int n = world_.num_learners();
  for (int k = 0; k < n; ++k) {
    agents_.push_back(std::make_unique<HeroAgent>(
        world_.high_level_obs_dim(), n - 1, cfg_.high, cfg_.opponent, rng));
  }
}

std::map<Option, std::vector<double>> HeroTrainer::train_skills(
    int episodes_per_skill, Rng& rng, const SkillHook& hook) {
  OBS_PHASE("stage1");
  if (cfg_.num_workers > 1) {
    // One task per learned skill; a pool at least as wide as the skill count
    // preserves the historical thread-per-skill concurrency.
    const std::size_t threads = std::max<std::size_t>(
        static_cast<std::size_t>(cfg_.num_workers),
        static_cast<std::size_t>(kNumOptions - 1));
    if (!pool_ || pool_->size() < threads) {
      pool_ = std::make_unique<runtime::ThreadPool>(threads);
    }
    return skills_.train_all_parallel(episodes_per_skill, rng.engine()(), *pool_, hook);
  }
  std::map<Option, std::vector<double>> curves;
  for (int i = 0; i < kNumOptions; ++i) {
    const Option o = option_from_index(i);
    if (!skills_.has_agent(o)) continue;
    sim::LaneWorld skill_world(sim::skill_training_world(/*with_leader=*/false));
    curves[o] = skills_.train_skill(
        o, skill_world, episodes_per_skill, rng,
        [&](int ep, double r) {
          if (hook) hook(o, ep, r);
        });
  }
  return curves;
}

void HeroTrainer::save(const std::string& dir) {
  write_manifest(dir, manifest_of(*this));
  skills_.save(dir);
  for (std::size_t k = 0; k < agents_.size(); ++k) {
    const std::string base = dir + "/agent" + std::to_string(k);
    auto& agent = *agents_[k];
    nn::save_params_file(agent.high_level().actor().net(), base + "_actor.ckpt");
    nn::save_params_file(agent.high_level().critic(), base + "_critic.ckpt");
    for (int j = 0; j < agent.opponents().num_opponents(); ++j) {
      nn::save_params_file(agent.opponents().net(j),
                           base + "_opp" + std::to_string(j) + ".ckpt");
    }
  }
}

void HeroTrainer::load(const std::string& dir) { load(dir, read_manifest(dir)); }

void HeroTrainer::load(const std::string& dir, const CheckpointManifest& on_disk) {
  validate_manifest(on_disk, manifest_of(*this), dir);
  skills_.load(dir);
  for (std::size_t k = 0; k < agents_.size(); ++k) {
    const std::string base = dir + "/agent" + std::to_string(k);
    auto& agent = *agents_[k];
    nn::load_params_file(agent.high_level().actor().net(), base + "_actor.ckpt");
    nn::load_params_file(agent.high_level().critic(), base + "_critic.ckpt");
    for (int j = 0; j < agent.opponents().num_opponents(); ++j) {
      nn::load_params_file(agent.opponents().net(j),
                           base + "_opp" + std::to_string(j) + ".ckpt");
    }
    agent.opponents().mark_trained();
  }
}

void HeroTrainer::act_rows_into(const rl::ObsBatch& batch, Rng* const* rngs,
                                bool explore, sim::TwistCmd* cmds_out) {
  // Sessions are keyed by slot index and survive across calls; growing the
  // batch appends fresh (unstarted) sessions without disturbing existing
  // slots.
  if (act_sessions_.size() < batch.count()) act_sessions_.resize(batch.count());
  act_session_ptrs_.resize(batch.count());
  for (std::size_t s = 0; s < batch.count(); ++s) {
    act_session_ptrs_[s] = &act_sessions_[s];
  }
  act_engine_.act_rows(skills_, agents_, cfg_.high, cfg_.skill.termination, batch,
                       act_session_ptrs_.data(), rngs, explore, cmds_out);
}

void HeroTrainer::emit_episode_obs(int episode, const rl::EpisodeStats& stats,
                                   long switches, long opp_preds, long opp_hits,
                                   double steps_per_sec,
                                   const RunningStat& critic_loss,
                                   const RunningStat& actor_entropy,
                                   const RunningStat& critic_gn,
                                   const RunningStat& actor_gn,
                                   const RunningStat& opp_loss) {
  const int n = static_cast<int>(agents_.size());
  const double switch_rate =
      stats.steps > 0
          ? static_cast<double>(switches) / (static_cast<double>(stats.steps) * n)
          : 0.0;
  double replay = 0.0;
  for (auto& a : agents_) replay += static_cast<double>(a->high_level().buffered());
  replay /= n;
  const double opp_acc =
      opp_preds > 0 ? static_cast<double>(opp_hits) / opp_preds : 0.0;

  if (obs::metrics_enabled()) {
    auto& reg = obs::Registry::instance();
    reg.counter("hero.stage2.episodes").inc();
    reg.counter("hero.stage2.steps").inc(stats.steps);
    reg.counter("hero.stage2.option_switches").inc(switches);
    if (stats.collision) reg.counter("hero.stage2.collisions").inc();
    if (stats.success) reg.counter("hero.stage2.successes").inc();
    reg.gauge("hero.stage2.replay_occupancy").set(replay);
    reg.gauge("hero.stage2.opponent_accuracy").set(opp_acc);
    reg.histogram("hero.stage2.episode_reward",
                  {/*lo=*/-100.0, /*hi=*/100.0, /*buckets=*/64,
                   /*log_scale=*/false})
        .observe(stats.team_reward);
    reg.histogram("hero.stage2.steps_per_sec").observe(steps_per_sec);
  }
  if (obs::telemetry_enabled()) {
    obs::TelemetryEvent e("stage2/episode");
    e.field("episode", episode)
        .field("reward", stats.team_reward)
        .field("steps", stats.steps)
        .field("collision", stats.collision)
        .field("success", stats.success)
        .field("mean_speed", stats.mean_speed)
        .field("option_switches", switches)
        .field("option_switch_rate", switch_rate)
        .field("opponent_accuracy", opp_acc)
        .field("opponent_predictions", opp_preds)
        .field("replay_occupancy", replay)
        .field("steps_per_sec", steps_per_sec)
        .field("total_steps", total_steps_);
    if (critic_loss.count() > 0) {
      e.field("critic_loss", critic_loss.mean())
          .field("actor_entropy", actor_entropy.mean())
          .field("critic_grad_norm", critic_gn.mean())
          .field("actor_grad_norm", actor_gn.mean());
    }
    if (opp_loss.count() > 0) e.field("opponent_loss", opp_loss.mean());
    obs::Telemetry::instance().emit(e);
  }
  if (obs::health_enabled()) {
    obs::EpisodeHealth h;
    h.episode = episode;
    h.reward = stats.team_reward;
    h.steps = stats.steps;
    h.steps_per_sec = steps_per_sec;
    h.have_updates = critic_loss.count() > 0;
    h.updated_this_episode = critic_loss.count() > 0;
    if (h.have_updates) {
      h.critic_loss = critic_loss.mean();
      h.critic_grad_norm = critic_gn.mean();
      h.actor_grad_norm = actor_gn.mean();
    }
    h.have_replay = true;  // stage 2 always learns through the HL replay
    h.opponent_predictions = opp_preds;
    h.opponent_accuracy = opp_acc;
    h.option_switch_rate = switch_rate;
    obs::AlertEngine::instance().observe_episode(h);
    obs::note_episode();
  }
}

void HeroTrainer::train(int episodes, Rng& rng, const algos::EpisodeHook& hook) {
  OBS_PHASE("stage2");
  const int envs = std::max(cfg_.batch_envs, 1);
  // One engine draw keys the whole call: the caller's rng advances
  // identically however many episodes follow.
  const std::uint64_t root = rng.engine()();
  if (!lanes_) lanes_ = std::make_unique<sim::BatchLaneWorld>(scenario_.config, envs);

  // Read at each round's start: here for the first, after each round's
  // report for the next.
  bool observing = obs::metrics_enabled() || obs::telemetry_enabled();
  double round_start_us = observing ? obs::now_us() : 0.0;
  std::vector<rl::EpisodeStats> round(static_cast<std::size_t>(envs));

  rl::EpisodeLoop loop;
  loop.controller = this;
  loop.explore = true;
  loop.merger_index = scenario_.merger_index;
  loop.merger_target_lane = scenario_.merger_target_lane;
  loop.on_step = [&](const rl::StepView& tick) {
    ++pending_update_steps_;  // the gradient clock counts batch steps
    OBS_PHASE("accumulate");
    rollout_.on_step(tick, act_engine_, act_sessions_, observing);
  };
  loop.on_episode = [&](int episode, std::size_t lane, const rl::EpisodeStats& stats) {
    round[lane] = stats;
    if (episode + 1 < episodes && lane + 1 < round.size()) return;
    learn_round(episode - static_cast<int>(lane), round, lane + 1, rng, hook, observing,
                round_start_us);
    observing = obs::metrics_enabled() || obs::telemetry_enabled();
    round_start_us = observing ? obs::now_us() : 0.0;
  };
  rl::run_episodes(loop, *lanes_, root, episodes);
}

void HeroTrainer::for_each_learner(const std::function<void(std::size_t)>& fn) {
  if (learner_threads_ == 0) {
    learner_threads_ = std::min(agents_.size(), runtime::affinity_cpus());
    if (learner_threads_ > 1) {
      learner_pool_ = std::make_unique<runtime::ThreadPool>(learner_threads_);
    }
  }
  if (learner_pool_) {
    learner_pool_->parallel_for(agents_.size(), fn);
    return;
  }
  for (std::size_t k = 0; k < agents_.size(); ++k) fn(k);
}

void HeroTrainer::learn_round(int first, const std::vector<rl::EpisodeStats>& stats,
                              std::size_t count, Rng& rng,
                              const algos::EpisodeHook& hook, bool observing,
                              double round_start_us) {
  OBS_PHASE("learn");
  const int n = static_cast<int>(agents_.size());
  // Merge in lane order == canonical episode order: replay stores
  // agent-major FIFO, opponent labels (agent, opponent)-major FIFO.
  long round_steps = 0;
  {
    OBS_PHASE("merge");
    for (std::size_t e = 0; e < count; ++e) {
      BatchedEpisode& col = rollout_.episode(e);
      for (int k = 0; k < n; ++k) {
        auto& hl = agents_[static_cast<std::size_t>(k)]->high_level();
        for (auto& t : col.high[static_cast<std::size_t>(k)]) hl.store(std::move(t));
        auto& om = agents_[static_cast<std::size_t>(k)]->opponents();
        for (int j = 0; j < n - 1; ++j) {
          auto& samples =
              col.opp[static_cast<std::size_t>(k) * static_cast<std::size_t>(n - 1) +
                      static_cast<std::size_t>(j)];
          for (auto& s : samples) {
            om.observe(j, std::move(s.obs), option_from_index(s.option));
          }
        }
        hl.set_selections(hl.selections() + col.selections[static_cast<std::size_t>(k)]);
      }
      round_steps += stats[e].steps;
    }
    total_steps_ += round_steps;
  }

  // Gradient cadence in synchronized *batch* steps — the batching
  // throughput lever (docs/BATCHING.md §cadence): one batch step advanced
  // every live lane, so at batch_envs = E this runs ~E× fewer update
  // rounds per environment step than one lane does, with the remainder
  // carried across rounds.
  const long rounds = pending_update_steps_ / cfg_.update_every;
  pending_update_steps_ -= rounds * cfg_.update_every;
  RunningStat critic_loss, actor_entropy, critic_gn, actor_gn, opp_loss;
  // The learners share nothing (paper Sec. III-C), so each one's rounds run
  // as one task. Every rng draw stays on this thread, in the order of one
  // thread stepping the agents round by round, which makes the result
  // independent of the pool width (docs/PARALLELISM.md).
  const std::size_t n_agents = agents_.size();
  std::size_t round_indices = 0;
  for (const auto& agent : agents_) round_indices += agent->round_indices();
  const long block = std::max<long>(
      1, static_cast<long>(kDrawBudget / std::max<std::size_t>(round_indices, 1)));
  draws_.resize(n_agents);
  for (long done = 0; done < rounds; done += block) {
    const long count = std::min(block, rounds - done);
    {
      OBS_PHASE("replay");
      for (auto& d : draws_) d.clear();
      for (long r = 0; r < count; ++r) {
        for (std::size_t k = 0; k < n_agents; ++k) agents_[k]->draw(rng, draws_[k]);
      }
    }
    update_stats_.resize(static_cast<std::size_t>(count) * n_agents);
    for_each_learner([&](std::size_t k) {
      HeroAgent& agent = *agents_[k];
      const std::size_t stride = agent.round_indices();
      for (long r = 0; r < count; ++r) {
        const std::size_t ri = static_cast<std::size_t>(r);
        update_stats_[ri * n_agents + k] = agent.apply(draws_[k].data() + ri * stride);
      }
    });
    if (!observing) continue;
    for (const AgentUpdateStats& us : update_stats_) {  // (round, agent) order
      if (us.high.updated) {
        critic_loss.add(us.high.critic_loss);
        actor_entropy.add(us.high.actor_entropy);
        critic_gn.add(us.high.critic_grad_norm);
        actor_gn.add(us.high.actor_grad_norm);
      }
      if (us.opponent_updates > 0) opp_loss.add(us.opponent_loss);
    }
  }

  // Throughput is a property of the whole round (collection, merge and
  // updates), reported on each of its episodes.
  double steps_per_sec = 0.0;
  if (observing) {
    const double wall_s = (obs::now_us() - round_start_us) * 1e-6;
    if (wall_s > 0.0) steps_per_sec = static_cast<double>(round_steps) / wall_s;
  }
  for (std::size_t e = 0; e < count; ++e) {
    const BatchedEpisode& col = rollout_.episode(e);
    const int episode = first + static_cast<int>(e);
    if (observing) {
      // Update stats describe the whole round; attach them to its last
      // episode so telemetry counts each update round once.
      const bool last = e + 1 == count;
      const RunningStat empty;
      emit_episode_obs(episode, stats[e], col.switches, col.opp_total, col.opp_correct,
                       steps_per_sec, last ? critic_loss : empty,
                       last ? actor_entropy : empty, last ? critic_gn : empty,
                       last ? actor_gn : empty, last ? opp_loss : empty);
    }
    if (hook) hook(episode, stats[e]);
  }
}

}  // namespace hero::core
