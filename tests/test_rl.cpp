// Tests for the RL infrastructure: replay buffer, exploration schedules and
// noise, the discrete action grid, and the shared episode loop and
// evaluation harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "algos/dqn.h"
#include "obs/phase.h"
#include "rl/discretizer.h"
#include "rl/episode_runner.h"
#include "rl/evaluation.h"
#include "rl/exploration.h"
#include "rl/replay_buffer.h"
#include "runtime/rng_stream.h"
#include "sim/scenario.h"

namespace hero::rl {
namespace {

// -------------------------------------------------------- ReplayBuffer ----

TEST(ReplayBuffer, FillsThenOverwritesOldest) {
  ReplayBuffer<int> buf(3);
  buf.add(1);
  buf.add(2);
  buf.add(3);
  EXPECT_EQ(buf.size(), 3u);
  buf.add(4);  // overwrites slot 0
  EXPECT_EQ(buf.size(), 3u);
  std::multiset<int> contents;
  for (std::size_t i = 0; i < buf.size(); ++i) contents.insert(buf.at(i));
  EXPECT_TRUE(contents.count(4));
  EXPECT_FALSE(contents.count(1));
}

TEST(ReplayBuffer, SampleReturnsStoredItems) {
  ReplayBuffer<int> buf(10);
  for (int i = 0; i < 5; ++i) buf.add(i * 10);
  Rng rng(1);
  auto s = buf.sample(100, rng);
  EXPECT_EQ(s.size(), 100u);
  for (const int* p : s) {
    EXPECT_EQ(*p % 10, 0);
    EXPECT_LE(*p, 40);
  }
}

TEST(ReplayBuffer, SampleCoversAllItems) {
  ReplayBuffer<int> buf(10);
  for (int i = 0; i < 10; ++i) buf.add(i);
  Rng rng(2);
  std::set<int> seen;
  for (const int* p : buf.sample(500, rng)) seen.insert(*p);
  EXPECT_EQ(seen.size(), 10u);
}

TEST(ReplayBuffer, ReadyThreshold) {
  ReplayBuffer<int> buf(10);
  EXPECT_FALSE(buf.ready(1));
  buf.add(1);
  EXPECT_TRUE(buf.ready(1));
  EXPECT_FALSE(buf.ready(2));
}

TEST(ReplayBuffer, ClearResets) {
  ReplayBuffer<int> buf(4);
  buf.add(1);
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  buf.add(7);
  EXPECT_EQ(buf.at(0), 7);
}

TEST(ReplayBuffer, SampleEmptyThrows) {
  ReplayBuffer<int> buf(4);
  Rng rng(3);
  EXPECT_THROW(buf.sample(1, rng), std::logic_error);
}

// ------------------------------------------------------------ schedules ---

TEST(LinearSchedule, Interpolates) {
  LinearSchedule s(1.0, 0.1, 100);
  EXPECT_DOUBLE_EQ(s.value(0), 1.0);
  EXPECT_NEAR(s.value(50), 0.55, 1e-12);
  EXPECT_DOUBLE_EQ(s.value(100), 0.1);
  EXPECT_DOUBLE_EQ(s.value(1000), 0.1);
  EXPECT_DOUBLE_EQ(s.value(-5), 1.0);
}

TEST(OrnsteinUhlenbeck, MeanRevertsAndResets) {
  OrnsteinUhlenbeck ou(1, 0.5, 0.0, 1.0);  // no diffusion: pure decay
  Rng rng(4);
  // Manually push the state by sampling with sigma 0 — state stays 0; use a
  // sigma > 0 process to verify boundedness instead.
  OrnsteinUhlenbeck noisy(2, 0.15, 0.2, 1.0);
  double last = 0.0;
  for (int i = 0; i < 1000; ++i) last = noisy.sample(rng)[0];
  (void)last;
  noisy.reset();
  // After reset the very first sample is a single small step from zero.
  auto v = noisy.sample(rng);
  EXPECT_LT(std::abs(v[0]), 1.5);
}

TEST(OrnsteinUhlenbeck, TemporallyCorrelated) {
  OrnsteinUhlenbeck ou(1, 0.05, 0.1, 1.0);
  Rng rng(5);
  // Consecutive samples should be closer than independent draws: measure the
  // lag-1 autocorrelation over a long run.
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(ou.sample(rng)[0]);
  double mean = 0;
  for (double x : xs) mean += x;
  mean /= xs.size();
  double num = 0, den = 0;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    num += (xs[i] - mean) * (xs[i + 1] - mean);
    den += (xs[i] - mean) * (xs[i] - mean);
  }
  EXPECT_GT(num / den, 0.7);
}

TEST(GaussianPerturb, RespectsBounds) {
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    auto a = gaussian_perturb({0.19, 0.24}, {0.04, -0.25}, {0.2, 0.25}, 0.5, rng);
    EXPECT_GE(a[0], 0.04);
    EXPECT_LE(a[0], 0.2);
    EXPECT_GE(a[1], -0.25);
    EXPECT_LE(a[1], 0.25);
  }
}

// ------------------------------------------------------------ ActionGrid --

TEST(ActionGrid, SizeAndDecode) {
  ActionGrid g = ActionGrid::standard();
  EXPECT_EQ(g.size(), 25u);
  auto c0 = g.decode(0);
  EXPECT_DOUBLE_EQ(c0.linear, 0.04);
  EXPECT_DOUBLE_EQ(c0.angular, -0.25);
  auto clast = g.decode(24);
  EXPECT_DOUBLE_EQ(clast.linear, 0.20);
  EXPECT_DOUBLE_EQ(clast.angular, 0.25);
}

TEST(ActionGrid, EncodeDecodeRoundTrip) {
  ActionGrid g = ActionGrid::standard();
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.encode(g.decode(i)), i);
  }
}

TEST(ActionGrid, EncodeSnapsToNearest) {
  ActionGrid g = ActionGrid::standard();
  auto c = g.decode(g.encode({0.05, 0.01}));
  EXPECT_DOUBLE_EQ(c.linear, 0.04);
  EXPECT_DOUBLE_EQ(c.angular, 0.0);
}

TEST(ActionGrid, DecodeOutOfRangeThrows) {
  ActionGrid g = ActionGrid::standard();
  EXPECT_THROW(g.decode(25), std::logic_error);
}

// -------------------------------------------------------------- ObsBatch --

// Extracts one world state into slots 0 and 1 of a batch, each with its own
// noise stream; reports whether every row of the two slots agrees and
// whether slot 0's stream was left untouched.
void extract_one_state_twice(const sim::LaneWorldConfig& cfg, bool* rows_equal,
                             bool* rng_untouched) {
  sim::LaneWorld world(cfg);
  Rng reset_rng(3);
  world.reset(reset_rng);
  ObsBatch batch;
  batch.configure(world.num_learners(), world.high_level_obs_dim(),
                  world.low_level_obs_dim(), world.track().num_lanes());
  batch.set_count(2);
  Rng a(1), b(2);
  batch.set_slot_from_world(0, world.batch_world(), 0, /*reset=*/true, &a);
  batch.set_slot_from_world(1, world.batch_world(), 0, /*reset=*/true, &b);
  *rows_equal = true;
  for (int k = 0; k < world.num_learners(); ++k) {
    *rows_equal = *rows_equal && std::equal(batch.hl_row(0, k),
                                            batch.hl_row(0, k) + batch.hl_dim(),
                                            batch.hl_row(1, k));
    for (int lane = 0; lane < batch.num_lanes(); ++lane) {
      *rows_equal = *rows_equal &&
                    std::equal(batch.ll_row(0, k, lane),
                               batch.ll_row(0, k, lane) + batch.ll_dim(),
                               batch.ll_row(1, k, lane));
    }
  }
  *rng_untouched = a.engine() == Rng(1).engine();
}

// The one world → batch extraction draws the Table II sensor noise from the
// slot's stream; at zero noise it draws nothing and is a pure function of
// the world state.
TEST(ObsBatch, ExtractionDrawsSensorNoiseFromSlotStream) {
  const auto sc = sim::cooperative_lane_change();
  bool equal = false;
  bool untouched = false;
  extract_one_state_twice(sim::with_real_world_shift(sc.config), &equal, &untouched);
  EXPECT_FALSE(equal);
  EXPECT_FALSE(untouched);
  extract_one_state_twice(sc.config, &equal, &untouched);
  EXPECT_TRUE(equal);
  EXPECT_TRUE(untouched);
}

// ------------------------------------------------------------ evaluation --

// A scripted controller used to exercise the harness deterministically.
class ConstantController : public Controller {
 public:
  explicit ConstantController(sim::TwistCmd cmd) : cmd_(cmd) {}
  void act_rows_into(const ObsBatch& batch, Rng* const*, bool,
                     sim::TwistCmd* cmds_out) override {
    const auto n = static_cast<std::size_t>(batch.num_learners());
    for (std::size_t s = 0; s < batch.count(); ++s) {
      if (!batch.slot(s).active) continue;
      std::fill(cmds_out + s * n, cmds_out + (s + 1) * n, cmd_);
    }
  }

 private:
  sim::TwistCmd cmd_;
};

TEST(Evaluation, CrawlingAvoidsCollisionButNeverMerges) {
  auto sc = sim::cooperative_lane_change();
  sim::LaneWorld world(sc.config);
  ConstantController crawl({0.04, 0.0});  // match the plodder's speed
  Rng rng(7);
  auto summary = evaluate(world, crawl, rng, 10, sc.merger_index,
                          sc.merger_target_lane);
  EXPECT_EQ(summary.episodes, 10);
  EXPECT_DOUBLE_EQ(summary.collision_rate, 0.0);
  EXPECT_DOUBLE_EQ(summary.success_rate, 0.0);
  EXPECT_NEAR(summary.mean_speed, 0.04, 1e-9);
}

TEST(Evaluation, FullSpeedCollides) {
  auto sc = sim::cooperative_lane_change();
  sim::LaneWorld world(sc.config);
  ConstantController ram({0.20, 0.0});
  Rng rng(8);
  auto summary = evaluate(world, ram, rng, 10, sc.merger_index,
                          sc.merger_target_lane);
  EXPECT_GT(summary.collision_rate, 0.8);
  EXPECT_LT(summary.mean_reward, 0.0);
}

TEST(Evaluation, EpisodeStatsStepsAndReward) {
  auto sc = sim::cooperative_lane_change();
  sim::LaneWorld world(sc.config);
  ConstantController crawl({0.04, 0.0});
  Rng rng(9);
  EpisodeLoop loop;
  loop.controller = &crawl;
  loop.merger_index = sc.merger_index;
  loop.merger_target_lane = sc.merger_target_lane;
  std::vector<EpisodeStats> episodes;
  loop.on_episode = [&](int, std::size_t, const EpisodeStats& s) {
    episodes.push_back(s);
  };
  run_episodes(loop, world.batch_world(), rng, 1);
  ASSERT_EQ(episodes.size(), 1u);
  const EpisodeStats& ep = episodes[0];
  EXPECT_EQ(ep.steps, sc.config.max_steps);
  EXPECT_FALSE(ep.collision);
  // Crawling earns small positive travel reward every step.
  EXPECT_GT(ep.team_reward, 0.0);
  EXPECT_LT(ep.team_reward, 5.0);
}

// evaluate() and evaluate_batch() are two keyings of one episode loop: the
// lone episode of evaluate_batch(root, 1 episode, width 1) draws from
// stream_rng(root, 0), so evaluate() from a copy of that stream must score
// it bit for bit — on the shifted world too, where the sensor, actuation
// and dynamics noise all draw from that one stream. The controller reads
// its (noisy) observations: an untrained DQN.
TEST(Evaluation, EvaluateAndEvaluateBatchShareOneLoop) {
  auto sc = sim::cooperative_lane_change();
  Rng init(11);
  algos::IndependentDqnTrainer dqn(sc, algos::DqnConfig{}, init);
  const std::uint64_t root = 1234;
  for (const sim::LaneWorldConfig& cfg :
       {sc.config, sim::with_real_world_shift(sc.config)}) {
    sim::LaneWorld world(cfg);
    Rng rng = runtime::stream_rng(root, 0);
    const EvalSummary a = evaluate(world, dqn, rng, 1, sc.merger_index,
                                   sc.merger_target_lane);
    const EvalSummary b = evaluate_batch(cfg, dqn, root, 1, 1, sc.merger_index,
                                         sc.merger_target_lane);
    EXPECT_EQ(a.mean_reward, b.mean_reward);  // bitwise
    EXPECT_EQ(a.collision_rate, b.collision_rate);
    EXPECT_EQ(a.success_rate, b.success_rate);
    EXPECT_EQ(a.mean_speed, b.mean_speed);
    EXPECT_EQ(a.episodes, b.episodes);
  }
}

// A round's scope closes before its episodes are reported, so the report
// hook's own scopes (HERO's learn) are siblings of `rollout`, not children:
// stage2/learn and perfbench's per-layer sums rely on it.
TEST(EpisodeRunner, ReportsEpisodesOutsideTheRolloutScope) {
  auto sc = sim::cooperative_lane_change();
  sim::BatchLaneWorld world(sc.config, /*num_envs=*/2);
  ConstantController crawl({0.04, 0.0});
  EpisodeLoop loop;
  loop.controller = &crawl;
  loop.merger_index = sc.merger_index;
  loop.merger_target_lane = sc.merger_target_lane;
  loop.on_episode = [](int, std::size_t, const EpisodeStats&) { OBS_PHASE("report"); };

  obs::set_phases_enabled(true);
  obs::PhaseRegistry::instance().reset();
  run_episodes(loop, world, /*root=*/5, /*episodes=*/4);
  const std::vector<obs::PhaseStat> roots = obs::PhaseRegistry::instance().snapshot();
  obs::set_phases_enabled(false);
  obs::PhaseRegistry::instance().reset();

  // Entered scopes only: earlier tests may leave zeroed nodes behind.
  const auto entered = [](const std::vector<obs::PhaseStat>& nodes, const char* name) {
    const auto it =
        std::find_if(nodes.begin(), nodes.end(), [&](const obs::PhaseStat& p) {
          return p.name == name && p.count > 0;
        });
    return it == nodes.end() ? nullptr : &*it;
  };
  const obs::PhaseStat* rollout = entered(roots, "rollout");
  ASSERT_NE(rollout, nullptr);
  EXPECT_EQ(rollout->count, 2u);  // one per round
  EXPECT_NE(entered(rollout->children, "obs_build"), nullptr);
  EXPECT_NE(entered(rollout->children, "sim_step"), nullptr);
  EXPECT_EQ(entered(rollout->children, "report"), nullptr);
  const obs::PhaseStat* report = entered(roots, "report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->count, 4u);
}

}  // namespace
}  // namespace hero::rl
