// Integration tests: the full HERO pipeline, cross-method evaluation through
// the shared harness, and sim-to-"real" transfer of trained controllers.
#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>

#include "algos/dqn.h"
#include "hero/hero_trainer.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "rl/evaluation.h"
#include "runtime/thread_pool.h"
#include "sim/scenario.h"

namespace hero {
namespace {

core::HeroConfig fast_hero() {
  core::HeroConfig cfg;
  cfg.skill.sac.batch = 32;
  cfg.skill.sac.warmup_steps = 64;
  cfg.high.batch = 16;
  cfg.high.warmup_transitions = 16;
  cfg.opponent.min_samples = 32;
  return cfg;
}

TEST(HeroPipeline, StageOneProducesCurvesForLearnedSkills) {
  Rng rng(1);
  auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, fast_hero(), rng);
  auto curves = trainer.train_skills(10, rng);
  EXPECT_EQ(curves.size(), 3u);  // keep-lane is not learned
  EXPECT_EQ(curves.count(core::Option::kKeepLane), 0u);
  for (const auto& [o, curve] : curves) {
    (void)o;
    EXPECT_EQ(curve.size(), 10u);
  }
}

TEST(HeroPipeline, StageTwoTrainsAndFillsBuffers) {
  Rng rng(2);
  auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, fast_hero(), rng);
  trainer.train_skills(20, rng);

  int hooks = 0;
  trainer.train(10, rng, [&](int, const rl::EpisodeStats& s) {
    ++hooks;
    EXPECT_GT(s.steps, 0);
    EXPECT_LE(s.steps, sc.config.max_steps);
  });
  EXPECT_EQ(hooks, 10);
  for (int k = 0; k < trainer.num_agents(); ++k) {
    EXPECT_GT(trainer.agent(k).high_level().buffered(), 0u);
  }
}

TEST(HeroPipeline, OpponentLossHistoryGrowsDuringTraining) {
  Rng rng(3);
  auto sc = sim::cooperative_lane_change();
  auto cfg = fast_hero();
  cfg.opponent.min_samples = 16;
  core::HeroTrainer trainer(sc, cfg, rng);
  trainer.train_skills(10, rng);
  trainer.train(15, rng);
  const auto& hist = trainer.agent(1).opponents().loss_history();
  ASSERT_EQ(hist.size(), 2u);  // two opponents from vehicle 2's perspective
  EXPECT_GT(hist[0].size(), 0u);
  EXPECT_GT(hist[1].size(), 0u);
}

TEST(HeroPipeline, ControllerProducesValidCommands) {
  Rng rng(4);
  auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, fast_hero(), rng);
  trainer.train_skills(10, rng);

  sim::LaneWorld world(sc.config);
  world.reset(rng);
  trainer.begin_episode();
  while (!world.done()) {
    auto cmds = trainer.act(world, rng, /*explore=*/false);
    ASSERT_EQ(cmds.size(), 3u);
    for (const auto& c : cmds) {
      EXPECT_GE(c.linear, 0.0);
      EXPECT_LE(c.linear, 0.25);           // actuator envelope
      EXPECT_LE(std::abs(c.angular), 0.6);
    }
    (void)world.step(cmds, rng);
  }
}

TEST(HeroPipeline, EvaluationDoesNotPolluteReplay) {
  Rng rng(5);
  auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, fast_hero(), rng);
  trainer.train_skills(10, rng);
  trainer.train(5, rng);
  const std::size_t buffered = trainer.agent(0).high_level().buffered();
  std::vector<long> selections;
  for (int k = 0; k < trainer.num_agents(); ++k) {
    selections.push_back(trainer.agent(k).high_level().selections());
  }

  sim::LaneWorld world(sc.config);
  (void)rl::evaluate(world, trainer, rng, 5, sc.merger_index, sc.merger_target_lane);
  EXPECT_EQ(trainer.agent(0).high_level().buffered(), buffered);
  // Nor the ε schedule: acting counts selections in its own sessions, so
  // training after an evaluation explores exactly as it would have without.
  for (int k = 0; k < trainer.num_agents(); ++k) {
    EXPECT_EQ(trainer.agent(k).high_level().selections(),
              selections[static_cast<std::size_t>(k)])
        << "agent " << k;
  }
}

TEST(HeroPipeline, RunsOnDomainShiftedWorld) {
  Rng rng(6);
  auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, fast_hero(), rng);
  trainer.train_skills(10, rng);

  sim::LaneWorld real_world(sim::with_real_world_shift(sc.config));
  auto summary = rl::evaluate(real_world, trainer, rng, 5, sc.merger_index,
                              sc.merger_target_lane);
  EXPECT_EQ(summary.episodes, 5);
  EXPECT_GE(summary.collision_rate, 0.0);
  EXPECT_LE(summary.collision_rate, 1.0);
}

TEST(HeroPipeline, AsynchronousTermination) {
  // Agents must hold options of different remaining lengths — after a few
  // steps their option ages must not all be equal (asynchronous mode).
  Rng rng(7);
  auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, fast_hero(), rng);
  trainer.train_skills(5, rng);

  // Explore through the one action path on a batch of one, keeping the
  // session in view.
  sim::LaneWorld world(sc.config);
  rl::ObsBatch batch;
  batch.configure(world.num_learners(), world.high_level_obs_dim(),
                  world.low_level_obs_dim(), world.track().num_lanes());
  core::HeroActEngine engine;
  core::HeroSession session;
  core::HeroSession* sessions[] = {&session};
  Rng* rngs[] = {&rng};
  std::vector<sim::TwistCmd> cmds(static_cast<std::size_t>(world.num_learners()));
  bool saw_desync = false;
  for (int ep = 0; ep < 5 && !saw_desync; ++ep) {
    world.reset(rng);
    bool fresh = true;
    while (!world.done()) {
      batch.set_count(1);
      batch.set_slot_from_world(0, world.batch_world(), 0, fresh, &rng);
      fresh = false;
      engine.act_rows(trainer.skills(), trainer.agents(), trainer.config().high,
                      trainer.config().skill.termination, batch, sessions, rngs,
                      /*explore=*/true, cmds.data());
      (void)world.step(cmds, rng);
      const int s0 = session.agents[0].exec.steps;
      const int s1 = session.agents[1].exec.steps;
      const int s2 = session.agents[2].exec.steps;
      if (s0 != s1 || s1 != s2) saw_desync = true;
    }
  }
  EXPECT_TRUE(saw_desync);
}

TEST(HeroPipeline, DeterministicGivenSeed) {
  auto run = [](unsigned seed) {
    Rng rng(seed);
    auto sc = sim::cooperative_lane_change();
    core::HeroTrainer trainer(sc, fast_hero(), rng);
    trainer.train_skills(5, rng);
    std::vector<double> rewards;
    trainer.train(5, rng, [&](int, const rl::EpisodeStats& s) {
      rewards.push_back(s.team_reward);
    });
    return rewards;
  };
  EXPECT_EQ(run(11), run(11));
}

// Serialized learner parameters (actors, critics, opponent predictors) —
// bitwise fingerprint for the determinism tests below.
std::string learner_params(core::HeroTrainer& t) {
  std::ostringstream os;
  for (int k = 0; k < t.num_agents(); ++k) {
    auto& a = t.agent(k);
    nn::save_params(a.high_level().actor().net(), os);
    nn::save_params(a.high_level().critic(), os);
    for (int j = 0; j < a.opponents().num_opponents(); ++j) {
      nn::save_params(a.opponents().net(j), os);
    }
  }
  return os.str();
}

TEST(HeroParallel, ResultsInvariantToWorkerCount) {
  // Stage 2 is keyed to (seed, batch_envs) only: num_workers sizes the
  // stage-1 skill pool and never changes stage-2 trajectories
  // (docs/PARALLELISM.md).
  auto run = [](int workers, std::string* params) {
    Rng rng(23);
    auto sc = sim::cooperative_lane_change();
    auto cfg = fast_hero();
    cfg.num_workers = workers;
    core::HeroTrainer trainer(sc, cfg, rng);
    std::vector<double> rewards;
    trainer.train(6, rng, [&](int, const rl::EpisodeStats& s) {
      rewards.push_back(s.team_reward);
    });
    *params = learner_params(trainer);
    return rewards;
  };
  std::string p1, p4;
  const auto r1 = run(1, &p1);
  const auto r4 = run(4, &p4);
  EXPECT_EQ(r1, r4);
  EXPECT_EQ(p1, p4);
}

// Pins the calling thread to its first allowed CPU until destroyed.
class OneCpu {
 public:
  OneCpu() {
    CPU_ZERO(&saved_);
    EXPECT_EQ(sched_getaffinity(0, sizeof(saved_), &saved_), 0);
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) {
        CPU_SET(c, &one);
        break;
      }
    }
    EXPECT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  }
  ~OneCpu() { sched_setaffinity(0, sizeof(saved_), &saved_); }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

TEST(HeroParallel, LearnerFanOutMatchesOneCpuBitwise) {
  // Stage-2 updates fan out one task per learner on a pool of
  // min(learners, CPUs in the affinity mask) threads, fixed by the first
  // update round. A trainer whose first train() call saw one CPU updates
  // inline; one that saw the host's CPUs fans out. Both must train the same
  // bits: the width is no determinism key (docs/PARALLELISM.md).
  struct Run {
    std::vector<double> rewards;
    std::string params;
    std::vector<std::vector<std::vector<double>>> opp_losses;
    double pool_threads = 0.0;
  };
  auto run = [](int batch_envs, bool one_cpu) {
    Run out;
    Rng rng(47);
    auto sc = sim::cooperative_lane_change();
    auto cfg = fast_hero();
    cfg.batch_envs = batch_envs;
    core::HeroTrainer trainer(sc, cfg, rng);
    auto hook = [&](int, const rl::EpisodeStats& s) { out.rewards.push_back(s.team_reward); };
    obs::set_metrics_enabled(true);
    auto& gauge = obs::Registry::instance().gauge("runtime.pool.threads");
    gauge.reset();
    {
      std::optional<OneCpu> pin;
      if (one_cpu) pin.emplace();
      trainer.train(8, rng, hook);
    }
    trainer.train(4, rng, hook);  // the first call's width holds
    out.pool_threads = gauge.value();
    obs::set_metrics_enabled(false);
    out.params = learner_params(trainer);
    for (int k = 0; k < trainer.num_agents(); ++k) {
      out.opp_losses.push_back(trainer.agent(k).opponents().loss_history());
    }
    return out;
  };
  const std::size_t width =
      std::min<std::size_t>(3, runtime::affinity_cpus());  // cooperative_lane_change: 3 learners
  for (int batch_envs : {1, 3}) {
    SCOPED_TRACE(batch_envs);
    const Run inline_run = run(batch_envs, /*one_cpu=*/true);
    const Run pooled = run(batch_envs, /*one_cpu=*/false);
    EXPECT_EQ(inline_run.pool_threads, 0.0);  // width 1 builds no pool
    EXPECT_EQ(pooled.pool_threads, width > 1 ? static_cast<double>(width) : 0.0);
    ASSERT_FALSE(pooled.opp_losses.empty());
    EXPECT_FALSE(pooled.opp_losses[0][0].empty());  // updates ran
    EXPECT_EQ(inline_run.rewards, pooled.rewards);
    EXPECT_EQ(inline_run.params, pooled.params);
    EXPECT_EQ(inline_run.opp_losses, pooled.opp_losses);
  }
  if (runtime::affinity_cpus() < 2) {
    std::printf("only one CPU: the fan-out ran inline on both sides\n");
  }
}

TEST(HeroBatched, SameSeedRunsAreBitwiseIdentical) {
  // The batch-first engine's determinism contract: results are a pure
  // function of (seed, batch_envs) — docs/BATCHING.md.
  auto run = [](std::string* params) {
    Rng rng(31);
    auto sc = sim::cooperative_lane_change();
    auto cfg = fast_hero();
    cfg.batch_envs = 3;
    core::HeroTrainer trainer(sc, cfg, rng);
    std::vector<double> rewards;
    trainer.train(6, rng, [&](int, const rl::EpisodeStats& s) {
      rewards.push_back(s.team_reward);
    });
    *params = learner_params(trainer);
    return rewards;
  };
  std::string p1, p2;
  const auto r1 = run(&p1);
  const auto r2 = run(&p2);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(p1, p2);
}

TEST(HeroBatched, TrainsAndFillsBuffersAtWidthOne) {
  // batch_envs = 1 exercises every lane-retirement and merge edge with a
  // single live lane — the smallest deployment of the batched engine.
  Rng rng(37);
  auto sc = sim::cooperative_lane_change();
  auto cfg = fast_hero();
  cfg.batch_envs = 1;
  core::HeroTrainer trainer(sc, cfg, rng);
  int hooks = 0;
  trainer.train(5, rng, [&](int ep, const rl::EpisodeStats& s) {
    EXPECT_EQ(ep, hooks);
    ++hooks;
    EXPECT_GT(s.steps, 0);
    EXPECT_LE(s.steps, sc.config.max_steps);
  });
  EXPECT_EQ(hooks, 5);
  for (int k = 0; k < trainer.num_agents(); ++k) {
    EXPECT_GT(trainer.agent(k).high_level().buffered(), 0u);
    EXPECT_GT(trainer.agent(k).high_level().selections(), 0);
  }
}

TEST(HeroBatched, HooksFireInCanonicalEpisodeOrder) {
  // Lane order IS episode order, including the short tail round (7 episodes
  // over width-3 rounds: 3 + 3 + 1).
  Rng rng(41);
  auto sc = sim::cooperative_lane_change();
  auto cfg = fast_hero();
  cfg.batch_envs = 3;
  core::HeroTrainer trainer(sc, cfg, rng);
  std::vector<int> episodes;
  trainer.train(7, rng, [&](int ep, const rl::EpisodeStats& s) {
    episodes.push_back(ep);
    EXPECT_GT(s.steps, 0);
  });
  std::vector<int> want(7);
  for (int i = 0; i < 7; ++i) want[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(episodes, want);
  for (int k = 0; k < trainer.num_agents(); ++k) {
    EXPECT_GT(trainer.agent(k).high_level().buffered(), 0u);
    EXPECT_GT(trainer.agent(k).opponents().samples(0), 0u);
  }
}

TEST(HeroPipeline, EvaluationBetweenTrainCallsLeavesTrainingUnchanged) {
  // Training and evaluation act through the trainer's one engine and one
  // slot-keyed session pool. A training round restarts every slot it takes,
  // so evaluations between train() calls, on their own streams and wider
  // than training, change no training result.
  auto run = [](bool evaluate, std::string* params) {
    Rng rng(43);
    auto sc = sim::cooperative_lane_change();
    auto cfg = fast_hero();
    cfg.batch_envs = 3;
    core::HeroTrainer trainer(sc, cfg, rng);
    std::vector<double> rewards;
    const algos::EpisodeHook hook = [&](int, const rl::EpisodeStats& s) {
      rewards.push_back(s.team_reward);
    };
    trainer.train(6, rng, hook);
    if (evaluate) {
      Rng eval_rng(5);
      sim::LaneWorld world(sc.config);
      (void)rl::evaluate(world, trainer, eval_rng, 2, sc.merger_index,
                         sc.merger_target_lane);
      (void)rl::evaluate_batch(sc.config, trainer, /*root_seed=*/9, /*episodes=*/8,
                               /*batch=*/8, sc.merger_index, sc.merger_target_lane);
    }
    trainer.train(7, rng, hook);
    *params = learner_params(trainer);
    return rewards;
  };
  std::string plain, evaluated;
  const auto r_plain = run(false, &plain);
  const auto r_evaluated = run(true, &evaluated);
  ASSERT_EQ(r_plain.size(), 13u);
  EXPECT_EQ(r_plain, r_evaluated);  // bitwise
  EXPECT_EQ(plain, evaluated);
}

TEST(HeroPipeline, CheckpointRoundTripReproducesBehaviour) {
  Rng rng(9);
  auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, fast_hero(), rng);
  trainer.train_skills(15, rng);
  trainer.train(10, rng);

  const auto dir = std::filesystem::temp_directory_path() / "hero_ckpt_test";
  std::filesystem::create_directories(dir);
  trainer.save(dir.string());

  Rng rng2(99);
  core::HeroTrainer restored(sc, fast_hero(), rng2);
  restored.load(dir.string());

  // Identical greedy behaviour on an identical episode.
  sim::LaneWorld w1(sc.config), w2(sc.config);
  Rng e1(7), e2(7);
  w1.reset(e1);
  w2.reset(e2);
  trainer.begin_episode();
  restored.begin_episode();
  while (!w1.done() && !w2.done()) {
    auto c1 = trainer.act(w1, e1, false);
    auto c2 = restored.act(w2, e2, false);
    ASSERT_EQ(c1.size(), c2.size());
    for (std::size_t i = 0; i < c1.size(); ++i) {
      EXPECT_NEAR(c1[i].linear, c2[i].linear, 1e-12);
      EXPECT_NEAR(c1[i].angular, c2[i].angular, 1e-12);
    }
    (void)w1.step(c1, e1);
    (void)w2.step(c2, e2);
  }
  // Loaded opponent models must be trusted (not the uniform prior).
  EXPECT_TRUE(restored.agent(0).opponents().trained());
  std::filesystem::remove_all(dir);
}

TEST(CrossMethod, SharedHarnessScoresHeroAndDqnIdentically) {
  // Both controllers must run through the same evaluate() without special
  // cases — the property the Fig. 7/11 and Table II benches rely on.
  Rng rng(8);
  auto sc = sim::cooperative_lane_change();

  core::HeroTrainer hero(sc, fast_hero(), rng);
  hero.train_skills(5, rng);

  algos::DqnConfig dq;
  dq.batch = 16;
  dq.warmup_steps = 32;
  algos::IndependentDqnTrainer dqn(sc, dq, rng);

  sim::LaneWorld world(sc.config);
  auto s1 = rl::evaluate(world, hero, rng, 3, sc.merger_index, sc.merger_target_lane);
  auto s2 = rl::evaluate(world, dqn, rng, 3, sc.merger_index, sc.merger_target_lane);
  EXPECT_EQ(s1.episodes, 3);
  EXPECT_EQ(s2.episodes, 3);
}

}  // namespace
}  // namespace hero
