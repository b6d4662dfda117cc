#include "hero/hero_trainer.h"

#include <algorithm>
#include <string>

#include "common/stats.h"
#include "hero/checkpoint.h"
#include "nn/serialize.h"
#include "obs/obs.h"
#include "sim/scenario.h"

namespace hero::core {

HeroTrainer::HeroTrainer(const sim::Scenario& scenario, const HeroConfig& cfg,
                         Rng& rng)
    : scenario_(scenario),
      cfg_(cfg),
      world_(scenario.config),
      skills_(world_.low_level_obs_dim(), cfg.skill, rng) {
  const int n = world_.num_learners();
  for (int k = 0; k < n; ++k) {
    agents_.push_back(std::make_unique<HeroAgent>(
        world_.high_level_obs_dim(), n - 1, cfg_.high, cfg_.opponent,
        cfg_.skill.termination, rng));
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

void HeroTrainer::load(const std::string& dir) {
  CheckpointManifest on_disk;
  if (read_manifest(dir, &on_disk)) {
    validate_manifest(on_disk, manifest_of(*this), dir);
  }
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

void HeroTrainer::begin_episode(const sim::LaneWorld& world) {
  (void)world;
  episode_started_ = false;
  for (auto& a : agents_) a->reset_episode();
}

std::vector<sim::TwistCmd> HeroTrainer::act(const sim::LaneWorld& world, Rng& rng,
                                            bool explore) {
  OBS_PHASE("act");
  const int n = static_cast<int>(agents_.size());
  HERO_CHECK_MSG(world.num_learners() == n,
                 "world has " << world.num_learners() << " learners, trainer has " << n);

  for (int k = 0; k < n; ++k) {
    const int vi = world.learners()[static_cast<std::size_t>(k)];
    auto& agent = *agents_[static_cast<std::size_t>(k)];
    if (!episode_started_) {
      agent.select_initial(world, vi, rng, explore);
    } else {
      agent.maybe_reselect(world, vi, rng, explore);
    }
  }
  episode_started_ = true;

  std::vector<sim::TwistCmd> cmds;
  cmds.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const int vi = world.learners()[static_cast<std::size_t>(k)];
    auto& exec = agents_[static_cast<std::size_t>(k)]->execution();
    cmds.push_back(skills_.execute(exec, world, vi, rng,
                                   /*deterministic=*/!explore));
    ++exec.steps;  // one world.step() follows each act() by contract
  }
  return cmds;
}

void HeroTrainer::act_rows_into(const rl::ObsBatch& batch, Rng* const* rngs,
                                bool explore, sim::TwistCmd* cmds_out) {
  batched_act(batch, rngs, explore, cmds_out);
}

void HeroTrainer::batched_act(const rl::ObsBatch& batch, Rng* const* rngs,
                              bool explore, sim::TwistCmd* cmds_out) {
  if (!act_engine_) act_engine_ = std::make_unique<HeroActEngine>();
  // Sessions are keyed by slot index and survive across calls; growing the
  // batch appends fresh (unstarted) sessions without disturbing existing
  // slots.
  if (act_sessions_.size() < batch.count()) act_sessions_.resize(batch.count());
  act_session_ptrs_.resize(batch.count());
  for (std::size_t s = 0; s < batch.count(); ++s) {
    act_session_ptrs_[s] = &act_sessions_[s];
  }
  act_engine_->act_rows(skills_, agents_, cfg_.high, cfg_.skill.termination,
                        batch, act_session_ptrs_.data(), rngs, explore, cmds_out);
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
  const int n = static_cast<int>(agents_.size());
  const int envs = std::max(cfg_.batch_envs, 1);
  // One engine draw keys the whole call: the caller's rng advances
  // identically however many episodes follow.
  const std::uint64_t root = rng.engine()();
  if (!batched_) {
    batched_ = std::make_unique<BatchedRollout>(scenario_, cfg_.high,
                                                cfg_.skill.termination, skills_,
                                                agents_, envs);
  }
  std::vector<AgentUpdateStats> update_stats(static_cast<std::size_t>(n));

  int done_eps = 0;
  while (done_eps < episodes) {
    const std::size_t round = std::min<std::size_t>(
        static_cast<std::size_t>(envs), static_cast<std::size_t>(episodes - done_eps));
    const bool observing = obs::metrics_enabled() || obs::telemetry_enabled();
    const double round_start_us = observing ? obs::now_us() : 0.0;
    batched_->run_round(root, static_cast<std::size_t>(done_eps), round, observing);

    {
      OBS_PHASE("learn");
      // Merge in lane order == canonical episode order: replay stores
      // agent-major FIFO, opponent labels (agent, opponent)-major FIFO.
      long round_steps = 0;
      {
        OBS_PHASE("merge");
        for (std::size_t e = 0; e < round; ++e) {
          BatchedEpisode& col = batched_->episode(e);
          for (int k = 0; k < n; ++k) {
            auto& hl = agents_[static_cast<std::size_t>(k)]->high_level();
            for (auto& t : col.high[static_cast<std::size_t>(k)]) {
              hl.store(std::move(t));
            }
            auto& om = agents_[static_cast<std::size_t>(k)]->opponents();
            for (int j = 0; j < n - 1; ++j) {
              auto& samples =
                  col.opp[static_cast<std::size_t>(k) * static_cast<std::size_t>(n - 1) +
                          static_cast<std::size_t>(j)];
              for (auto& s : samples) {
                om.observe(j, std::move(s.obs), option_from_index(s.option));
              }
            }
            hl.set_selections(hl.selections() +
                              col.selections[static_cast<std::size_t>(k)]);
          }
          round_steps += col.stats.steps;
        }
        total_steps_ += round_steps;
      }

      // Gradient cadence in synchronized *batch* steps — the batching
      // throughput lever (docs/BATCHING.md §cadence): one batch step advanced
      // every live lane, so at batch_envs = E this runs ~E× fewer update
      // rounds per environment step than one lane does, with the remainder
      // carried across rounds.
      RunningStat critic_loss, actor_entropy, critic_gn, actor_gn, opp_loss;
      pending_update_steps_ += batched_->round_batch_steps();
      while (pending_update_steps_ >= cfg_.update_every) {
        pending_update_steps_ -= cfg_.update_every;
        for (std::size_t k = 0; k < agents_.size(); ++k) {
          update_stats[k] = agents_[k]->update(rng);
        }
        if (!observing) continue;
        for (const auto& us : update_stats) {
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
      for (std::size_t e = 0; e < round; ++e) {
        const BatchedEpisode& col = batched_->episode(e);
        if (observing) {
          // Update stats describe the whole round; attach them to its last
          // episode so telemetry counts each update round once.
          const bool last = e + 1 == round;
          const RunningStat empty;
          emit_episode_obs(done_eps + static_cast<int>(e), col.stats,
                           col.switches, col.opp_total, col.opp_correct,
                           steps_per_sec, last ? critic_loss : empty,
                           last ? actor_entropy : empty, last ? critic_gn : empty,
                           last ? actor_gn : empty, last ? opp_loss : empty);
        }
        if (hook) hook(done_eps + static_cast<int>(e), col.stats);
      }
    }
    done_eps += static_cast<int>(round);
  }
}

}  // namespace hero::core
