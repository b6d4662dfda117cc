// Tests for the baseline learners. SAC and DDPG are environment-agnostic, so
// they are verified end-to-end on a 1-D point-control task; the multi-agent
// trainers are exercised on the lane-change scenario.
#include <gtest/gtest.h>

#include <cmath>

#include "algos/coma.h"
#include "algos/ddpg.h"
#include "algos/dqn.h"
#include "algos/maac.h"
#include "algos/maddpg.h"
#include "algos/sac.h"

namespace hero::algos {
namespace {

// 1-D regulator: state x, action v ∈ [−1, 1], x' = x + 0.2·v,
// reward −|x'|. Optimal policy drives x to 0.
struct PointEnv {
  double x = 0.0;
  void reset(Rng& rng) { x = rng.uniform(-1.0, 1.0); }
  double step(double v) {
    x += 0.2 * v;
    return -std::abs(x);
  }
  std::vector<double> obs() const { return {x}; }
};

template <typename Agent>
double rollout_return(Agent& agent, Rng& rng, int episodes, bool explore) {
  PointEnv env;
  double total = 0.0;
  for (int ep = 0; ep < episodes; ++ep) {
    env.reset(rng);
    for (int t = 0; t < 20; ++t) {
      std::vector<double> a;
      if constexpr (std::is_same_v<Agent, SacAgent>) {
        a = agent.act(env.obs(), rng, !explore);
      } else {
        a = agent.act(env.obs(), rng, explore);
      }
      total += env.step(a[0]);
    }
  }
  return total / episodes;
}

TEST(Sac, LearnsPointControl) {
  Rng rng(1);
  SacConfig cfg;
  cfg.batch = 64;
  cfg.warmup_steps = 200;
  cfg.hidden = {16, 16};
  SacAgent agent(1, {-1.0}, {1.0}, cfg, rng);

  const double before = rollout_return(agent, rng, 10, false);
  PointEnv env;
  for (int ep = 0; ep < 150; ++ep) {
    env.reset(rng);
    for (int t = 0; t < 20; ++t) {
      auto obs = env.obs();
      auto a = agent.act(obs, rng);
      double r = env.step(a[0]);
      agent.observe(obs, a, r, env.obs(), t == 19, rng);
    }
  }
  const double after = rollout_return(agent, rng, 10, false);
  EXPECT_GT(after, before + 1.0);
  EXPECT_GT(after, -4.0);  // near-optimal: |x0| decays within a few steps
}

TEST(Sac, UpdateStatsReported) {
  Rng rng(2);
  SacConfig cfg;
  cfg.batch = 16;
  cfg.warmup_steps = 16;
  SacAgent agent(1, {-1.0}, {1.0}, cfg, rng);
  PointEnv env;
  env.reset(rng);
  SacUpdateStats last;
  for (int t = 0; t < 64; ++t) {
    auto obs = env.obs();
    auto a = agent.act(obs, rng);
    double r = env.step(a[0]);
    last = agent.observe(obs, a, r, env.obs(), false, rng);
  }
  EXPECT_TRUE(last.updated);
  EXPECT_GT(last.entropy, -10.0);
  EXPECT_LT(last.entropy, 10.0);
  EXPECT_GE(last.critic_loss, 0.0);
}

TEST(Sac, NoUpdateBeforeWarmup) {
  Rng rng(3);
  SacConfig cfg;
  cfg.warmup_steps = 1000;
  SacAgent agent(1, {-1.0}, {1.0}, cfg, rng);
  auto stats = agent.observe({0.0}, {0.0}, 0.0, {0.0}, false, rng);
  EXPECT_FALSE(stats.updated);
}

TEST(Ddpg, LearnsPointControl) {
  Rng rng(4);
  DdpgConfig cfg;
  cfg.batch = 64;
  cfg.warmup_steps = 200;
  cfg.hidden = {16, 16};
  cfg.noise_stddev = 0.2;
  DdpgAgent agent(1, {-1.0}, {1.0}, cfg, rng);

  PointEnv env;
  for (int ep = 0; ep < 150; ++ep) {
    env.reset(rng);
    for (int t = 0; t < 20; ++t) {
      auto obs = env.obs();
      auto a = agent.act(obs, rng, /*explore=*/true);
      double r = env.step(a[0]);
      agent.observe(obs, a, r, env.obs(), t == 19, rng);
    }
  }
  const double after = rollout_return(agent, rng, 10, false);
  EXPECT_GT(after, -4.0);
}

// -------------------------------------------------- multi-agent smoke -----

sim::Scenario small_scenario() { return sim::cooperative_lane_change(); }

DqnConfig fast_dqn() {
  DqnConfig c;
  c.batch = 32;
  c.warmup_steps = 64;
  return c;
}

TEST(IndependentDqn, ActsOnGridAndTrains) {
  Rng rng(5);
  auto sc = small_scenario();
  IndependentDqnTrainer trainer(sc, fast_dqn(), rng);

  auto cmds = trainer.act(trainer.world(), rng, /*explore=*/false);
  ASSERT_EQ(cmds.size(), 3u);
  rl::ActionGrid grid = rl::ActionGrid::standard();
  for (const auto& c : cmds) {
    // Every command must be a grid point.
    auto rt = grid.decode(grid.encode(c));
    EXPECT_DOUBLE_EQ(rt.linear, c.linear);
    EXPECT_DOUBLE_EQ(rt.angular, c.angular);
  }

  int episodes_seen = 0;
  trainer.train(5, rng, [&](int, const rl::EpisodeStats& s) {
    ++episodes_seen;
    EXPECT_GT(s.steps, 0);
  });
  EXPECT_EQ(episodes_seen, 5);
  EXPECT_GT(trainer.total_steps(), 0);
}

TEST(Maddpg, ActionsWithinPrimitiveBounds) {
  Rng rng(6);
  MaddpgConfig cfg;
  cfg.batch = 32;
  cfg.warmup_steps = 64;
  MaddpgTrainer trainer(small_scenario(), cfg, rng);
  trainer.train(3, rng);
  auto cmds = trainer.act(trainer.world(), rng, true);
  for (const auto& c : cmds) {
    EXPECT_GE(c.linear, 0.04);
    EXPECT_LE(c.linear, 0.20);
    EXPECT_GE(c.angular, -0.25);
    EXPECT_LE(c.angular, 0.25);
  }
}

TEST(Coma, TrainsOnPolicy) {
  Rng rng(7);
  ComaConfig cfg;
  ComaTrainer trainer(small_scenario(), cfg, rng);
  int hooks = 0;
  trainer.train(4, rng, [&](int, const rl::EpisodeStats&) { ++hooks; });
  EXPECT_EQ(hooks, 4);
  auto cmds = trainer.act(trainer.world(), rng, false);
  EXPECT_EQ(cmds.size(), 3u);
}

TEST(Maac, TrainsAndActs) {
  Rng rng(8);
  MaacConfig cfg;
  cfg.batch = 16;
  cfg.warmup_steps = 32;
  cfg.embed_dim = 16;
  MaacTrainer trainer(small_scenario(), cfg, rng);
  trainer.train(3, rng);
  auto cmds = trainer.act(trainer.world(), rng, false);
  EXPECT_EQ(cmds.size(), 3u);
}

// DQN's and MADDPG's num_workers option fans the independent per-agent
// updates out onto a pool; every RNG draw happens serially in agent order
// before the fan-out and workers write only index-addressed state, so the
// parallel path must reproduce the serial path bit for bit.
template <typename Trainer, typename Config>
std::vector<double> reward_trace(const Config& cfg, unsigned seed, int episodes) {
  Rng rng(seed);
  Trainer t(small_scenario(), cfg, rng);
  std::vector<double> rewards;
  t.train(episodes, rng, [&](int, const rl::EpisodeStats& s) {
    rewards.push_back(s.team_reward);
  });
  return rewards;
}

// Every trainer collects through the episode runner, so batch_envs > 0 is
// honored by all four: the lockstep path is keyed to (seed, batch_envs) —
// same pair, same trace; a different keying than batch_envs == 0 — and
// hooks fire in canonical episode order across rounds.
template <typename Trainer, typename Config>
void expect_batched_collection_reproducible_and_ordered(Config cfg) {
  cfg.batch_envs = 3;
  const std::vector<double> batched = reward_trace<Trainer>(cfg, 42, 5);
  EXPECT_EQ(batched, (reward_trace<Trainer>(cfg, 42, 5)));
  Config one_at_a_time = cfg;
  one_at_a_time.batch_envs = 0;
  EXPECT_NE(batched, (reward_trace<Trainer>(one_at_a_time, 42, 5)));

  Rng rng(43);
  Trainer t(small_scenario(), cfg, rng);
  std::vector<int> order;
  t.train(5, rng, [&](int ep, const rl::EpisodeStats& s) {
    order.push_back(ep);
    EXPECT_GT(s.steps, 0);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(IndependentDqn, ParallelUpdatesMatchSerialBitwise) {
  DqnConfig serial = fast_dqn();
  DqnConfig parallel = serial;
  parallel.num_workers = 3;
  EXPECT_EQ((reward_trace<IndependentDqnTrainer>(serial, 42, 5)),
            (reward_trace<IndependentDqnTrainer>(parallel, 42, 5)));
}

TEST(IndependentDqn, BatchedCollectionIsReproducibleAndOrdered) {
  // The batch-first path is keyed to (seed, batch_envs): same pair → same
  // trace, and hooks fire in canonical episode order across rounds.
  DqnConfig cfg = fast_dqn();
  cfg.batch_envs = 3;
  EXPECT_EQ((reward_trace<IndependentDqnTrainer>(cfg, 42, 5)),
            (reward_trace<IndependentDqnTrainer>(cfg, 42, 5)));

  Rng rng(43);
  IndependentDqnTrainer t(small_scenario(), cfg, rng);
  std::vector<int> order;
  t.train(5, rng, [&](int ep, const rl::EpisodeStats& s) {
    order.push_back(ep);
    EXPECT_GT(s.steps, 0);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_GT(t.total_steps(), 0);
}

TEST(Maddpg, ParallelUpdatesMatchSerialBitwise) {
  MaddpgConfig serial;
  serial.batch = 32;
  serial.warmup_steps = 64;
  MaddpgConfig parallel = serial;
  parallel.num_workers = 3;
  EXPECT_EQ((reward_trace<MaddpgTrainer>(serial, 42, 4)),
            (reward_trace<MaddpgTrainer>(parallel, 42, 4)));
}

TEST(Maddpg, BatchedCollectionIsReproducibleAndOrdered) {
  MaddpgConfig cfg;
  cfg.batch = 32;
  cfg.warmup_steps = 64;
  expect_batched_collection_reproducible_and_ordered<MaddpgTrainer>(cfg);
}

TEST(Coma, BatchedCollectionIsReproducibleAndOrdered) {
  expect_batched_collection_reproducible_and_ordered<ComaTrainer>(ComaConfig{});
}

TEST(Maac, BatchedCollectionIsReproducibleAndOrdered) {
  MaacConfig cfg;
  cfg.batch = 16;
  cfg.warmup_steps = 32;
  cfg.embed_dim = 16;
  expect_batched_collection_reproducible_and_ordered<MaacTrainer>(cfg);
}

// Determinism: identical seeds must reproduce identical training traces.
TEST(IndependentDqn, DeterministicGivenSeed) {
  auto run = [](unsigned seed) {
    Rng rng(seed);
    IndependentDqnTrainer trainer(small_scenario(), fast_dqn(), rng);
    std::vector<double> rewards;
    trainer.train(5, rng, [&](int, const rl::EpisodeStats& s) {
      rewards.push_back(s.team_reward);
    });
    return rewards;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace hero::algos
