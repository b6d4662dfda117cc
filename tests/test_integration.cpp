// Integration tests: the full HERO pipeline, cross-method evaluation through
// the shared harness, and sim-to-"real" transfer of trained controllers.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "algos/dqn.h"
#include "hero/hero_trainer.h"
#include "nn/serialize.h"
#include "rl/evaluation.h"
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
  trainer.begin_episode(world);
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

  sim::LaneWorld world(sc.config);
  (void)rl::evaluate(world, trainer, rng, 5, sc.merger_index, sc.merger_target_lane);
  EXPECT_EQ(trainer.agent(0).high_level().buffered(), buffered);
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

  sim::LaneWorld world(sc.config);
  bool saw_desync = false;
  for (int ep = 0; ep < 5 && !saw_desync; ++ep) {
    world.reset(rng);
    trainer.begin_episode(world);
    while (!world.done()) {
      auto cmds = trainer.act(world, rng, /*explore=*/true);
      (void)world.step(cmds, rng);
      const int s0 = trainer.agent(0).execution().steps;
      const int s1 = trainer.agent(1).execution().steps;
      const int s2 = trainer.agent(2).execution().steps;
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
  trainer.begin_episode(w1);
  restored.begin_episode(w2);
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
