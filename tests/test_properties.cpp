// Parameterized property tests (TEST_P sweeps): invariants that must hold
// across whole families of inputs — kinematics, action bounds, environment
// step contracts, network shapes, probability outputs.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "nn/losses.h"
#include "nn/mlp.h"
#include "nn/policy_heads.h"
#include "rl/discretizer.h"
#include "rl/exploration.h"
#include "rl/replay_buffer.h"
#include "sim/scenario.h"
#include "support/sensor_scene.h"
#include "support/sim_oracle.h"

namespace hero {
namespace {

// ------------------------------------------------ vehicle kinematics ------

class VehicleKinematicsP
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(VehicleKinematicsP, StepInvariants) {
  const auto [speed, yaw, dt] = GetParam();
  sim::Track track({8.0, 0.35, 2});
  sim::VehicleParams params;
  sim::oracle::Vehicle v(params, sim::VehicleState{1.0, 0.0, 0.0, 0.0, 0.0});

  for (int i = 0; i < 40; ++i) {
    const sim::VehicleState before = v.state();
    v.step({speed, yaw}, dt, track);
    const sim::VehicleState& after = v.state();

    // Arc-length progress can never exceed the commanded (clamped) speed.
    const double clamped = std::clamp(speed, params.min_speed, params.max_speed);
    const double dx = track.signed_dx(before.x, after.x);
    const double dy = after.y - before.y;
    EXPECT_LE(std::hypot(dx, dy), clamped * dt + 1e-9);

    // Coordinates stay wrapped, heading stays clamped.
    EXPECT_GE(after.x, 0.0);
    EXPECT_LT(after.x, track.circumference());
    EXPECT_LE(std::abs(after.heading), params.max_heading + 1e-12);
    EXPECT_DOUBLE_EQ(after.speed, clamped);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SpeedYawDtSweep, VehicleKinematicsP,
    ::testing::Combine(::testing::Values(0.0, 0.04, 0.12, 0.2, 0.5),
                       ::testing::Values(-0.6, -0.1, 0.0, 0.25, 1.0),
                       ::testing::Values(0.1, 0.5, 1.0)));

// ------------------------------------------ squashed-Gaussian bounds ------

class SquashedGaussianBoundsP
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(SquashedGaussianBoundsP, SamplesStayWithinBoundsWithFiniteLogProb) {
  const auto [lo, hi] = GetParam();
  Rng rng(42);
  nn::SquashedGaussianPolicy pi(2, {8}, {lo}, {hi}, rng);
  for (int i = 0; i < 300; ++i) {
    auto s = pi.sample(nn::Matrix::row({rng.normal(), rng.normal()}), rng);
    EXPECT_GE(s.actions(0, 0), lo);
    EXPECT_LE(s.actions(0, 0), hi);
    EXPECT_TRUE(std::isfinite(s.log_prob[0]));
  }
}

INSTANTIATE_TEST_SUITE_P(BoundSweep, SquashedGaussianBoundsP,
                         ::testing::Values(std::pair{0.04, 0.08},
                                           std::pair{0.08, 0.14},
                                           std::pair{0.10, 0.20},
                                           std::pair{0.12, 0.25},
                                           std::pair{-1.0, 1.0},
                                           std::pair{-10.0, -5.0}));

// --------------------------------------------------- action grids ---------

class ActionGridP : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ActionGridP, DecodeEncodeRoundTripForAnyGrid) {
  const auto [nl, na] = GetParam();
  std::vector<double> lin, ang;
  for (int i = 0; i < nl; ++i) lin.push_back(0.04 + 0.16 * i / std::max(1, nl - 1));
  for (int i = 0; i < na; ++i) ang.push_back(-0.25 + 0.5 * i / std::max(1, na - 1));
  rl::ActionGrid g(lin, ang);
  EXPECT_EQ(g.size(), static_cast<std::size_t>(nl * na));
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.encode(g.decode(i)), i);
  }
}

INSTANTIATE_TEST_SUITE_P(GridSweep, ActionGridP,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 3},
                                           std::pair{5, 5}, std::pair{7, 2},
                                           std::pair{3, 9}));

// ---------------------------------------------- LaneWorld contracts -------

class LaneWorldInvariantsP : public ::testing::TestWithParam<int> {};

TEST_P(LaneWorldInvariantsP, RandomPolicyEpisodeInvariants) {
  const int learners = GetParam();
  auto sc = sim::cooperative_lane_change(learners);
  sim::LaneWorld world(sc.config);
  Rng rng(static_cast<unsigned>(learners));

  for (int ep = 0; ep < 3; ++ep) {
    world.reset(rng);
    EXPECT_EQ(world.num_learners(), learners);
    while (!world.done()) {
      std::vector<sim::TwistCmd> cmds;
      for (int k = 0; k < learners; ++k) {
        cmds.push_back({rng.uniform(0.04, 0.2), rng.uniform(-0.25, 0.25)});
      }
      auto r = world.step(cmds, rng);
      ASSERT_EQ(r.reward.size(), static_cast<std::size_t>(learners));
      for (double rew : r.reward) EXPECT_TRUE(std::isfinite(rew));
      for (int i = 0; i < world.num_vehicles(); ++i) {
        EXPECT_LE(std::abs(r.travel[static_cast<std::size_t>(i)]),
                  world.config().vehicle.max_speed * world.config().dt + 1e-9);
        EXPECT_EQ(world.high_level_obs(i).size(), world.high_level_obs_dim());
        for (double o : world.high_level_obs(i)) EXPECT_TRUE(std::isfinite(o));
      }
      if (r.collision) {
        EXPECT_FALSE(r.collided.empty());
        EXPECT_TRUE(r.done);
      }
    }
    EXPECT_LE(world.steps(), world.config().max_steps);
  }
}

INSTANTIATE_TEST_SUITE_P(LearnerCountSweep, LaneWorldInvariantsP,
                         ::testing::Values(1, 2, 3, 4, 5));

// --------------------------------------------------- replay buffers -------

class ReplayBufferCapacityP : public ::testing::TestWithParam<int> {};

TEST_P(ReplayBufferCapacityP, NeverExceedsCapacityAndSamplesValid) {
  const std::size_t cap = static_cast<std::size_t>(GetParam());
  rl::ReplayBuffer<int> buf(cap);
  Rng rng(7);
  for (int i = 0; i < 3 * GetParam() + 5; ++i) {
    buf.add(i);
    EXPECT_LE(buf.size(), cap);
    auto s = buf.sample(4, rng);
    for (const int* p : s) {
      EXPECT_GE(*p, 0);
      EXPECT_LE(*p, i);
      // Everything sampled must still be within the retention window.
      EXPECT_GT(*p, i - static_cast<int>(cap));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CapacitySweep, ReplayBufferCapacityP,
                         ::testing::Values(1, 2, 7, 64, 1000));

// ------------------------------------------------------ schedules ---------

class LinearScheduleP
    : public ::testing::TestWithParam<std::tuple<double, double, long>> {};

TEST_P(LinearScheduleP, MonotoneAndBounded) {
  const auto [start, end, steps] = GetParam();
  rl::LinearSchedule s(start, end, steps);
  double prev = s.value(0);
  EXPECT_DOUBLE_EQ(prev, start);
  for (long t = 1; t <= steps + 10; ++t) {
    const double v = s.value(t);
    if (start >= end) {
      EXPECT_LE(v, prev + 1e-12);
    } else {
      EXPECT_GE(v, prev - 1e-12);
    }
    EXPECT_LE(v, std::max(start, end) + 1e-12);
    EXPECT_GE(v, std::min(start, end) - 1e-12);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(s.value(steps), end);
}

INSTANTIATE_TEST_SUITE_P(ScheduleSweep, LinearScheduleP,
                         ::testing::Values(std::tuple{1.0, 0.05, 100L},
                                           std::tuple{0.5, 0.5, 10L},
                                           std::tuple{0.1, 0.9, 7L},
                                           std::tuple{2.0, 0.0, 1L}));

// --------------------------------------------------------- MLP shapes -----

class MlpShapeP
    : public ::testing::TestWithParam<std::tuple<int, std::vector<std::size_t>, int>> {
};

TEST_P(MlpShapeP, ForwardBackwardShapesAndParamCount) {
  const auto [in, hidden, out] = GetParam();
  Rng rng(3);
  nn::Mlp net(static_cast<std::size_t>(in), hidden, static_cast<std::size_t>(out),
              rng);
  EXPECT_EQ(net.in_dim(), static_cast<std::size_t>(in));
  EXPECT_EQ(net.out_dim(), static_cast<std::size_t>(out));

  std::size_t expected = 0;
  std::size_t prev = static_cast<std::size_t>(in);
  for (std::size_t h : hidden) {
    expected += prev * h + h;
    prev = h;
  }
  expected += prev * static_cast<std::size_t>(out) + static_cast<std::size_t>(out);
  EXPECT_EQ(net.num_params(), expected);

  nn::Matrix x = nn::Matrix::xavier(5, static_cast<std::size_t>(in), rng);
  nn::Matrix y = net.forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), static_cast<std::size_t>(out));
  nn::Matrix din = net.backward(nn::Matrix(5, static_cast<std::size_t>(out), 1.0));
  EXPECT_EQ(din.rows(), 5u);
  EXPECT_EQ(din.cols(), static_cast<std::size_t>(in));
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, MlpShapeP,
    ::testing::Values(std::tuple{1, std::vector<std::size_t>{}, 1},
                      std::tuple{26, std::vector<std::size_t>{32}, 25},
                      std::tuple{18, std::vector<std::size_t>{32, 32}, 4},
                      std::tuple{8, std::vector<std::size_t>{16, 16, 16}, 2}));

// ------------------------------------------------------- softmax ----------

class SoftmaxScaleP : public ::testing::TestWithParam<double> {};

TEST_P(SoftmaxScaleP, DistributionInvariants) {
  Rng rng(5);
  nn::Matrix logits = nn::Matrix::xavier(6, 9, rng) * GetParam();
  nn::Matrix p = nn::softmax(logits);
  auto ent = nn::softmax_entropy(logits);
  for (std::size_t i = 0; i < 6; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_GE(p(i, j), 0.0);
      EXPECT_LE(p(i, j), 1.0);
      s += p(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-9);
    EXPECT_GE(ent[i], -1e-12);
    EXPECT_LE(ent[i], std::log(9.0) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(LogitScaleSweep, SoftmaxScaleP,
                         ::testing::Values(0.1, 1.0, 10.0, 100.0, 1000.0));

// -------------------------------------------- lidar rotational sanity -----

class LidarBeamCountP : public ::testing::TestWithParam<int> {};

TEST_P(LidarBeamCountP, EmptyWorldAllMaxRangeAnyBeamCount) {
  sim::Track track({8.0, 0.35, 2});
  const std::vector<sim::VehicleState> vs{{1.0, 0.0, 0.3, 0.1, 0.0}};
  sim::LidarSensor lidar({GetParam(), 2.0, 0.0});
  auto scan = sim::scene_scan(lidar, vs, 0, track);
  ASSERT_EQ(scan.size(), static_cast<std::size_t>(GetParam()));
  for (double r : scan) EXPECT_DOUBLE_EQ(r, 1.0);
}

INSTANTIATE_TEST_SUITE_P(BeamSweep, LidarBeamCountP,
                         ::testing::Values(1, 4, 16, 24, 64));

}  // namespace
}  // namespace hero
