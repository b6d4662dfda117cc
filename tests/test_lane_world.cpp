// Tests for the LaneWorld multi-agent environment: reset/step semantics,
// collision detection, rewards, observations, domain-shift machinery and the
// scenario builders.
#include <gtest/gtest.h>

#include "sim/scenario.h"

namespace hero::sim {
namespace {

LaneWorldConfig tiny_world(int learners, bool with_plodder) {
  LaneWorldConfig cfg;
  cfg.track = {8.0, 0.35, 2};
  cfg.dt = 0.5;
  cfg.max_steps = 10;
  for (int i = 0; i < learners; ++i) {
    VehicleSpec s;
    s.start_lane = 0;
    s.start_x = 1.0 * i;
    s.start_speed = 0.1;
    cfg.specs.push_back(s);
  }
  if (with_plodder) {
    VehicleSpec s;
    s.start_lane = 0;
    s.start_x = 1.0 * learners + 1.0;
    s.scripted = true;
    s.scripted_speed = 0.04;
    cfg.specs.push_back(s);
  }
  return cfg;
}

TEST(LaneWorld, LearnerBookkeeping) {
  LaneWorld w(tiny_world(2, true));
  EXPECT_EQ(w.num_vehicles(), 3);
  EXPECT_EQ(w.num_learners(), 2);
  EXPECT_EQ(w.learners(), (std::vector<int>{0, 1}));
}

TEST(LaneWorld, ResetPlacesVehiclesPerSpec) {
  LaneWorld w(tiny_world(2, false));
  Rng rng(1);
  w.reset(rng);
  EXPECT_NEAR(w.state(0).x, 0.0, 1e-12);
  EXPECT_NEAR(w.state(1).x, 1.0, 1e-12);
  EXPECT_EQ(w.lane(0), 0);
  EXPECT_EQ(w.steps(), 0);
  EXPECT_FALSE(w.done());
}

TEST(LaneWorld, ResetJitterStaysWithinBounds) {
  auto cfg = tiny_world(1, false);
  cfg.specs[0].start_x = 4.0;
  cfg.specs[0].start_x_jitter = 0.5;
  LaneWorld w(cfg);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    w.reset(rng);
    EXPECT_GE(w.state(0).x, 3.5 - 1e-9);
    EXPECT_LE(w.state(0).x, 4.5 + 1e-9);
  }
}

TEST(LaneWorld, StepMovesVehiclesAndAccumulatesTravel) {
  LaneWorld w(tiny_world(1, false));
  Rng rng(3);
  w.reset(rng);
  auto r = w.step({{0.1, 0.0}}, rng);
  EXPECT_NEAR(r.travel[0], 0.05, 1e-12);
  EXPECT_NEAR(w.total_travel(0), 0.05, 1e-12);
  EXPECT_EQ(w.steps(), 1);
  EXPECT_FALSE(r.collision);
}

TEST(LaneWorld, ScriptedVehicleDrivesItself) {
  LaneWorld w(tiny_world(1, true));
  Rng rng(4);
  w.reset(rng);
  const double x0 = w.state(1).x;
  (void)w.step({{0.1, 0.0}}, rng);
  EXPECT_NEAR(w.state(1).x - x0, 0.04 * 0.5, 1e-12);
}

TEST(LaneWorld, EndsAtMaxSteps) {
  LaneWorld w(tiny_world(1, false));
  Rng rng(5);
  w.reset(rng);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(w.done());
    (void)w.step({{0.1, 0.0}}, rng);
  }
  EXPECT_TRUE(w.done());
  EXPECT_THROW(w.step({{0.1, 0.0}}, rng), std::logic_error);
}

TEST(LaneWorld, RearEndCollisionDetected) {
  auto cfg = tiny_world(1, true);
  cfg.specs[1].start_x = 0.5;  // plodder only half a metre ahead
  LaneWorld w(cfg);
  Rng rng(6);
  w.reset(rng);
  bool collided = false;
  while (!w.done()) {
    auto r = w.step({{0.2, 0.0}}, rng);
    if (r.collision) {
      collided = true;
      EXPECT_EQ(r.collided.size(), 2u);  // both vehicles involved
      EXPECT_TRUE(r.done);
    }
  }
  EXPECT_TRUE(collided);
  EXPECT_TRUE(w.had_collision());
}

TEST(LaneWorld, CollisionAcrossWrapBoundary) {
  auto cfg = tiny_world(1, true);
  cfg.specs[0].start_x = 7.9;   // learner just before the wrap
  cfg.specs[1].start_x = 0.15;  // plodder just after it
  LaneWorld w(cfg);
  Rng rng(7);
  w.reset(rng);
  auto r = w.step({{0.2, 0.0}}, rng);
  EXPECT_TRUE(r.collision);
}

TEST(LaneWorld, OffRoadCountsAsCollision) {
  LaneWorld w(tiny_world(1, false));
  Rng rng(8);
  w.reset(rng);
  bool failed = false;
  // Steer hard right, off the road.
  while (!w.done()) {
    auto r = w.step({{0.2, -0.6}}, rng);
    failed = failed || r.collision;
  }
  EXPECT_TRUE(failed);
}

TEST(LaneWorld, OffRoadCanBeDisabled) {
  auto cfg = tiny_world(1, false);
  cfg.offroad_is_collision = false;
  LaneWorld w(cfg);
  Rng rng(9);
  w.reset(rng);
  while (!w.done()) {
    auto r = w.step({{0.2, -0.6}}, rng);
    EXPECT_FALSE(r.collision);
  }
}

TEST(LaneWorld, RewardFormula) {
  auto cfg = tiny_world(1, false);
  cfg.alpha = 0.7;
  LaneWorld w(cfg);
  Rng rng(10);
  w.reset(rng);
  auto r = w.step({{0.2, 0.0}}, rng);
  // No collision: r = (1−α)·travel/travel_norm = 0.3·(0.1/0.1) = 0.3.
  EXPECT_NEAR(r.reward[0], 0.3, 1e-9);
}

TEST(LaneWorld, CollisionRewardDominates) {
  auto cfg = tiny_world(1, true);
  cfg.specs[1].start_x = 0.32;  // nearly touching
  LaneWorld w(cfg);
  Rng rng(11);
  w.reset(rng);
  auto r = w.step({{0.2, 0.0}}, rng);
  ASSERT_TRUE(r.collision);
  // α·(−20) + (1−α)·travel ⇒ strongly negative.
  EXPECT_LT(r.reward[0], -13.0);
}

TEST(LaneWorld, SharedTravelAveragesTeam) {
  auto cfg = tiny_world(2, false);
  cfg.specs[1].start_x = 4.0;
  cfg.shared_travel = true;
  LaneWorld w(cfg);
  Rng rng(12);
  w.reset(rng);
  auto r = w.step({{0.2, 0.0}, {0.04, 0.0}}, rng);
  EXPECT_NEAR(r.reward[0], r.reward[1], 1e-12);
  // mean travel = (0.1 + 0.02)/2 = 0.06 → 0.3·0.6
  EXPECT_NEAR(r.reward[0], 0.3 * 0.6, 1e-9);
}

TEST(LaneWorld, IndividualTravelWhenNotShared) {
  auto cfg = tiny_world(2, false);
  cfg.specs[1].start_x = 4.0;
  cfg.shared_travel = false;
  LaneWorld w(cfg);
  Rng rng(13);
  w.reset(rng);
  auto r = w.step({{0.2, 0.0}, {0.04, 0.0}}, rng);
  EXPECT_GT(r.reward[0], r.reward[1]);
}

TEST(LaneWorld, HighLevelObsLayout) {
  LaneWorld w(tiny_world(1, true));
  Rng rng(14);
  w.reset(rng);
  auto obs = w.high_level_obs(0);
  EXPECT_EQ(obs.size(), w.high_level_obs_dim());
  const std::size_t n_beams = obs.size() - 2;
  EXPECT_EQ(n_beams, static_cast<std::size_t>(w.config().lidar.num_beams));
  // speed / max_speed, then lane id.
  EXPECT_NEAR(obs[n_beams], 0.1 / w.config().vehicle.max_speed, 1e-12);
  EXPECT_NEAR(obs[n_beams + 1], 0.0, 1e-12);
}

TEST(LaneWorld, LowLevelObsLayout) {
  LaneWorld w(tiny_world(1, false));
  Rng rng(15);
  w.reset(rng);
  auto obs = w.low_level_obs(0, 1);
  EXPECT_EQ(obs.size(), w.low_level_obs_dim());
  EXPECT_EQ(obs.size(), kLaneCameraDim + 2);
}

TEST(LaneWorld, WrongCommandCountThrows) {
  LaneWorld w(tiny_world(2, false));
  Rng rng(16);
  w.reset(rng);
  EXPECT_THROW(w.step({{0.1, 0.0}}, rng), std::logic_error);
}

TEST(LaneWorld, MeanSpeed) {
  LaneWorld w(tiny_world(1, false));
  Rng rng(17);
  w.reset(rng);
  (void)w.step({{0.1, 0.0}}, rng);
  (void)w.step({{0.2, 0.0}}, rng);
  EXPECT_NEAR(w.mean_speed(0), 0.15, 1e-9);
}

// ------------------------------------------------------- domain shift -----

TEST(LaneWorld, LatencyDelaysCommands) {
  auto cfg = tiny_world(1, false);
  cfg.actuation_latency = 2;
  LaneWorld w(cfg);
  Rng rng(18);
  w.reset(rng);
  // While the queue fills, the vehicle holds its initial speed (0.1).
  auto r1 = w.step({{0.2, 0.0}}, rng);
  EXPECT_NEAR(r1.travel[0], 0.05, 1e-12);
  auto r2 = w.step({{0.2, 0.0}}, rng);
  EXPECT_NEAR(r2.travel[0], 0.05, 1e-12);
  // Third step executes the first queued command.
  auto r3 = w.step({{0.04, 0.0}}, rng);
  EXPECT_NEAR(r3.travel[0], 0.10, 1e-12);
}

TEST(LaneWorld, ParamJitterPerturbsDynamicsPerEpisode) {
  auto cfg = tiny_world(1, false);
  cfg.param_jitter = 0.2;
  LaneWorld w(cfg);
  Rng rng(19);
  std::vector<double> travels;
  for (int ep = 0; ep < 5; ++ep) {
    w.reset(rng);
    auto r = w.step({{0.1, 0.0}}, rng);
    travels.push_back(r.travel[0]);
  }
  // Speed-gain jitter must make episodes differ.
  bool all_same = true;
  for (double t : travels) all_same = all_same && std::abs(t - travels[0]) < 1e-12;
  EXPECT_FALSE(all_same);
}

TEST(LaneWorld, RealWorldShiftEnablesAllKnobs) {
  auto cfg = with_real_world_shift(tiny_world(1, false));
  EXPECT_GT(cfg.lidar.noise_stddev, 0.0);
  EXPECT_GT(cfg.camera.noise_stddev, 0.0);
  EXPECT_GT(cfg.actuation_noise, 0.0);
  EXPECT_GE(cfg.actuation_latency, 1);
  EXPECT_GT(cfg.param_jitter, 0.0);
}

TEST(LaneWorld, NoNoiseMeansDeterministicStep) {
  LaneWorld w(tiny_world(1, false));
  Rng rng1(20), rng2(21);  // different RNGs
  w.reset(rng1);
  auto ra = w.step({{0.1, 0.05}}, rng1);
  LaneWorld w2(tiny_world(1, false));
  w2.reset(rng2);
  auto rb = w2.step({{0.1, 0.05}}, rng2);
  EXPECT_DOUBLE_EQ(ra.travel[0], rb.travel[0]);
  EXPECT_DOUBLE_EQ(w.state(0).y, w2.state(0).y);
}

TEST(LaneWorld, MovedWorldKeepsStepping) {
  // Callers keep worlds in growing vectors (one per served session), so a
  // world must step on unchanged after being moved — mid-episode, through a
  // vector reallocation — exactly like a twin that stayed put.
  const auto cfg = with_real_world_shift(tiny_world(2, true));
  LaneWorld twin(cfg);
  std::vector<LaneWorld> moved;
  moved.emplace_back(cfg);
  Rng rt(30), rm(30);
  twin.reset(rt);
  moved[0].reset(rm);
  const std::vector<TwistCmd> cmds{{0.1, 0.02}, {0.12, -0.01}};
  (void)twin.step(cmds, rt);
  (void)moved[0].step(cmds, rm);
  for (int i = 0; i < 8; ++i) moved.emplace_back(cfg);  // forces reallocation
  LaneWorld w = std::move(moved[0]);
  while (!twin.done()) {
    const StepResult a = twin.step(cmds, rt);
    const StepResult b = w.step(cmds, rm);
    EXPECT_EQ(a.reward, b.reward);
    EXPECT_EQ(a.travel, b.travel);
    EXPECT_EQ(a.collided, b.collided);
    EXPECT_EQ(twin.high_level_obs(1, &rt), w.high_level_obs(1, &rm));
    EXPECT_EQ(twin.low_level_obs(0, 1, &rt), w.low_level_obs(0, 1, &rm));
  }
  EXPECT_TRUE(w.done());
  EXPECT_EQ(twin.steps(), w.steps());
}

// ----------------------------------------------------------- scenarios ----

TEST(Scenario, CooperativeLaneChangeLayout) {
  auto sc = cooperative_lane_change();
  ASSERT_EQ(sc.config.specs.size(), 4u);
  EXPECT_FALSE(sc.config.specs[0].scripted);
  EXPECT_FALSE(sc.config.specs[1].scripted);
  EXPECT_FALSE(sc.config.specs[2].scripted);
  EXPECT_TRUE(sc.config.specs[3].scripted);
  // The merger starts in lane 0, behind the plodder.
  EXPECT_EQ(sc.config.specs[sc.merger_index].start_lane, 0);
  EXPECT_EQ(sc.merger_target_lane, 1);
  EXPECT_LT(sc.config.specs[sc.merger_index].start_x, sc.config.specs[3].start_x);
}

TEST(Scenario, ScalesToMoreLearners) {
  auto sc = cooperative_lane_change(5);
  LaneWorld w(sc.config);
  EXPECT_EQ(w.num_learners(), 5);
  EXPECT_EQ(w.num_vehicles(), 6);
  Rng rng(22);
  w.reset(rng);
  // No vehicle starts in collision.
  auto r = w.step(std::vector<TwistCmd>(5, {0.04, 0.0}), rng);
  EXPECT_FALSE(r.collision);
}

TEST(Scenario, SkillWorldIsSingleVehicle) {
  LaneWorld w(skill_training_world(false));
  EXPECT_EQ(w.num_vehicles(), 1);
  LaneWorld w2(skill_training_world(true));
  EXPECT_EQ(w2.num_vehicles(), 2);
  EXPECT_EQ(w2.num_learners(), 1);
}

TEST(Scenario, BlockedMergerCollidesIfNobodyActs) {
  // The scenario must create real pressure: full speed ahead ⇒ rear-end.
  auto sc = cooperative_lane_change();
  LaneWorld w(sc.config);
  Rng rng(23);
  int collisions = 0;
  for (int ep = 0; ep < 10; ++ep) {
    w.reset(rng);
    while (!w.done()) {
      auto r = w.step(std::vector<TwistCmd>(3, {0.14, 0.0}), rng);
      if (r.collision) ++collisions;
    }
  }
  EXPECT_GE(collisions, 8);
}

}  // namespace
}  // namespace hero::sim
