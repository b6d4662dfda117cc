// Tests for HERO's option machinery: action spaces (paper Sec. IV-C),
// asynchronous termination (Sec. III-B), intrinsic rewards, and the skill
// bank's twist mapping.
#include <gtest/gtest.h>

#include <filesystem>

#include "hero/skills.h"
#include "runtime/thread_pool.h"
#include "sim/scenario.h"

namespace hero::core {
namespace {

// --------------------------------------------------------------- options --

TEST(Options, NamesAndIndices) {
  EXPECT_STREQ(option_name(Option::kKeepLane), "keep_lane");
  EXPECT_STREQ(option_name(Option::kLaneChange), "lane_change");
  for (int i = 0; i < kNumOptions; ++i) {
    EXPECT_EQ(static_cast<int>(option_from_index(i)), i);
  }
  EXPECT_THROW(option_from_index(4), std::logic_error);
  EXPECT_THROW(option_from_index(-1), std::logic_error);
}

TEST(Options, ActionSpacesMatchPaper) {
  auto slow = option_action_space(Option::kSlowDown);
  EXPECT_DOUBLE_EQ(slow.lo[0], 0.04);
  EXPECT_DOUBLE_EQ(slow.hi[0], 0.08);
  EXPECT_DOUBLE_EQ(slow.lo[1], -0.10);
  EXPECT_DOUBLE_EQ(slow.hi[1], 0.10);

  auto acc = option_action_space(Option::kAccelerate);
  EXPECT_DOUBLE_EQ(acc.lo[0], 0.08);
  EXPECT_DOUBLE_EQ(acc.hi[0], 0.14);

  auto lc = option_action_space(Option::kLaneChange);
  EXPECT_DOUBLE_EQ(lc.lo[0], 0.10);
  EXPECT_DOUBLE_EQ(lc.hi[0], 0.20);
  EXPECT_DOUBLE_EQ(lc.lo[1], 0.12);
  EXPECT_DOUBLE_EQ(lc.hi[1], 0.25);
}

// ---------------------------------------------------------- termination ---

sim::LaneWorld make_world() {
  return sim::LaneWorld(sim::skill_training_world(false));
}

TEST(Termination, InLaneOptionEndsAfterFixedDuration) {
  auto world = make_world();
  Rng rng(1);
  world.reset(rng);
  TerminationConfig cfg;
  OptionExecution exec;
  exec.option = Option::kAccelerate;
  exec.steps = cfg.in_lane_duration - 1;
  EXPECT_FALSE(option_terminated(exec, world, 0, cfg));
  exec.steps = cfg.in_lane_duration;
  EXPECT_TRUE(option_terminated(exec, world, 0, cfg));
}

TEST(Termination, LaneChangeSucceedsWhenAlignedInTargetLane) {
  auto world = make_world();
  Rng rng(2);
  world.reset(rng);
  TerminationConfig cfg;
  OptionExecution exec;
  exec.option = Option::kLaneChange;
  exec.target_lane = 1;
  exec.steps = 3;

  // Vehicle still in lane 0: in progress.
  EXPECT_EQ(lane_change_outcome(exec, world, 0, cfg), LaneChangeOutcome::kInProgress);
  EXPECT_FALSE(option_terminated(exec, world, 0, cfg));

  // Teleport into the target lane, aligned: success.
  sim::VehicleState st = world.state(0);
  st.y = world.track().lane_center(1) + 0.01;
  st.heading = 0.05;
  world.set_state(0, st);
  EXPECT_EQ(lane_change_outcome(exec, world, 0, cfg), LaneChangeOutcome::kSuccess);
  EXPECT_TRUE(option_terminated(exec, world, 0, cfg));
}

TEST(Termination, LaneChangeTiltedDoesNotCountAsSuccess) {
  auto world = make_world();
  Rng rng(3);
  world.reset(rng);
  TerminationConfig cfg;
  OptionExecution exec;
  exec.option = Option::kLaneChange;
  exec.target_lane = 1;
  sim::VehicleState st = world.state(0);
  st.y = world.track().lane_center(1);
  st.heading = 0.5;  // too tilted
  world.set_state(0, st);
  EXPECT_EQ(lane_change_outcome(exec, world, 0, cfg), LaneChangeOutcome::kInProgress);
}

TEST(Termination, LaneChangeFailsAtDeadline) {
  auto world = make_world();
  Rng rng(4);
  world.reset(rng);
  TerminationConfig cfg;
  OptionExecution exec;
  exec.option = Option::kLaneChange;
  exec.target_lane = 1;
  exec.steps = cfg.lane_change_max_steps;
  EXPECT_EQ(lane_change_outcome(exec, world, 0, cfg), LaneChangeOutcome::kFail);
  EXPECT_TRUE(option_terminated(exec, world, 0, cfg));
}

// ------------------------------------------------------ intrinsic reward --

TEST(IntrinsicReward, DrivingInLanePenalizesDeviation) {
  auto world = make_world();
  Rng rng(5);
  world.reset(rng);
  IntrinsicRewardConfig cfg;

  const double centred = driving_in_lane_reward(world, 0, 0.05, cfg);
  sim::VehicleState st = world.state(0);
  st.y = 0.1;
  world.set_state(0, st);
  const double offset = driving_in_lane_reward(world, 0, 0.05, cfg);
  EXPECT_GT(centred, offset);
  // centred at travel 0.05: 0.5·0 + 0.5·(0.05/0.1) = 0.25
  EXPECT_NEAR(centred, 0.25, 1e-9);
}

TEST(IntrinsicReward, DrivingInLaneRewardsTravel) {
  auto world = make_world();
  Rng rng(6);
  world.reset(rng);
  IntrinsicRewardConfig cfg;
  EXPECT_GT(driving_in_lane_reward(world, 0, 0.1, cfg),
            driving_in_lane_reward(world, 0, 0.02, cfg));
}

TEST(IntrinsicReward, LaneChangeTerminalBonuses) {
  IntrinsicRewardConfig cfg;
  EXPECT_DOUBLE_EQ(lane_change_reward(LaneChangeOutcome::kSuccess, 0.05, cfg), 20.0);
  EXPECT_DOUBLE_EQ(lane_change_reward(LaneChangeOutcome::kFail, 0.05, cfg), -20.0);
  EXPECT_NEAR(lane_change_reward(LaneChangeOutcome::kInProgress, 0.05, cfg), 0.5,
              1e-12);
}

// ------------------------------------------------------------ SkillBank ---

TEST(SkillBank, KeepLaneHoldsSpeed) {
  Rng rng(7);
  auto world = make_world();
  world.reset(rng);
  SkillConfig cfg;
  SkillBank bank(world.low_level_obs_dim(), cfg, rng);
  OptionExecution exec;
  exec.option = Option::kKeepLane;
  exec.hold_speed = 0.123;
  auto cmd = bank.to_twist(exec, world, 0, {});
  EXPECT_DOUBLE_EQ(cmd.linear, 0.123);
  EXPECT_DOUBLE_EQ(cmd.angular, 0.0);
}

TEST(SkillBank, KeepLaneHasNoLearnedAgent) {
  Rng rng(8);
  SkillConfig cfg;
  SkillBank bank(8, cfg, rng);
  EXPECT_FALSE(bank.has_agent(Option::kKeepLane));
  EXPECT_TRUE(bank.has_agent(Option::kLaneChange));
  EXPECT_THROW(bank.agent(Option::kKeepLane), std::logic_error);
}

TEST(SkillBank, LaneChangeSteersTowardTargetLane) {
  Rng rng(9);
  auto world = make_world();
  world.reset(rng);
  SkillConfig cfg;
  SkillBank bank(world.low_level_obs_dim(), cfg, rng);

  OptionExecution up;
  up.option = Option::kLaneChange;
  up.target_lane = 1;  // target is above (y grows)
  auto cmd_up = bank.to_twist(up, world, 0, {0.15, 0.25});
  EXPECT_GT(cmd_up.angular, 0.0);

  // From lane 1 down to lane 0 the sign flips.
  sim::VehicleState st = world.state(0);
  st.y = world.track().lane_center(1);
  world.set_state(0, st);
  OptionExecution down;
  down.option = Option::kLaneChange;
  down.target_lane = 0;
  auto cmd_down = bank.to_twist(down, world, 0, {0.15, 0.25});
  EXPECT_LT(cmd_down.angular, 0.0);
}

TEST(SkillBank, LaneChangeSteeringBoundedByCommandedMagnitude) {
  Rng rng(10);
  auto world = make_world();
  world.reset(rng);
  SkillConfig cfg;
  SkillBank bank(world.low_level_obs_dim(), cfg, rng);
  OptionExecution exec;
  exec.option = Option::kLaneChange;
  exec.target_lane = 1;
  auto cmd = bank.to_twist(exec, world, 0, {0.15, 0.13});
  EXPECT_LE(std::abs(cmd.angular), 0.13 + 1e-12);
}

TEST(SkillBank, LaneChangeStraightensNearTarget) {
  Rng rng(11);
  auto world = make_world();
  world.reset(rng);
  sim::VehicleState st = world.state(0);
  st.y = world.track().lane_center(1) - 0.01;  // nearly there
  st.heading = 0.3;                            // still tilted
  world.set_state(0, st);
  SkillConfig cfg;
  SkillBank bank(world.low_level_obs_dim(), cfg, rng);
  OptionExecution exec;
  exec.option = Option::kLaneChange;
  exec.target_lane = 1;
  auto cmd = bank.to_twist(exec, world, 0, {0.15, 0.25});
  EXPECT_LT(cmd.angular, 0.0);  // counter-steer to align
}

TEST(SkillBank, InLaneSkillPassesActionThrough) {
  Rng rng(12);
  auto world = make_world();
  world.reset(rng);
  SkillConfig cfg;
  SkillBank bank(world.low_level_obs_dim(), cfg, rng);
  OptionExecution exec;
  exec.option = Option::kSlowDown;
  auto cmd = bank.to_twist(exec, world, 0, {0.06, -0.07});
  EXPECT_DOUBLE_EQ(cmd.linear, 0.06);
  EXPECT_DOUBLE_EQ(cmd.angular, -0.07);
}

TEST(SkillBank, PolicyActionsRespectOptionBounds) {
  Rng rng(13);
  auto world = make_world();
  world.reset(rng);
  SkillConfig cfg;
  SkillBank bank(world.low_level_obs_dim(), cfg, rng);
  auto obs = world.low_level_obs(0, 0);
  for (int i = 0; i < 50; ++i) {
    auto a = bank.policy_action(Option::kSlowDown, obs, rng, false);
    EXPECT_GE(a[0], 0.04);
    EXPECT_LE(a[0], 0.08);
    auto b = bank.policy_action(Option::kLaneChange, obs, rng, false);
    EXPECT_GE(b[1], 0.12);
    EXPECT_LE(b[1], 0.25);
  }
}

TEST(SkillBank, SkillObsUsesTargetLaneDuringChange) {
  Rng rng(14);
  auto world = make_world();
  world.reset(rng);
  SkillConfig cfg;
  SkillBank bank(world.low_level_obs_dim(), cfg, rng);
  OptionExecution keep;
  keep.option = Option::kSlowDown;
  OptionExecution change;
  change.option = Option::kLaneChange;
  change.target_lane = 1;
  auto o1 = bank.skill_obs(keep, world, 0);
  auto o2 = bank.skill_obs(change, world, 0);
  // Lateral-offset feature differs by exactly one lane width ratio.
  EXPECT_NEAR(o1[0] - o2[0], 1.0, 1e-9);
}

TEST(SkillBank, ParallelTrainingProducesAllCurves) {
  Rng rng(16);
  SkillConfig cfg;
  cfg.sac.batch = 32;
  cfg.sac.warmup_steps = 64;
  SkillBank bank(8, cfg, rng);
  int hook_calls = 0;
  runtime::ThreadPool pool(3);
  auto curves = bank.train_all_parallel(12, /*seed=*/7, pool,
                                        [&](Option, int, double) { ++hook_calls; });
  ASSERT_EQ(curves.size(), 3u);
  for (const auto& [o, curve] : curves) {
    EXPECT_TRUE(bank.has_agent(o));
    EXPECT_EQ(curve.size(), 12u);
  }
  EXPECT_EQ(hook_calls, 3 * 12);
}

TEST(SkillBank, ParallelTrainingDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    Rng rng(31);
    SkillConfig cfg;
    cfg.sac.batch = 16;
    cfg.sac.warmup_steps = 32;
    SkillBank bank(8, cfg, rng);
    runtime::ThreadPool pool(2);
    return bank.train_all_parallel(8, seed, pool);
  };
  auto a = run(5);
  auto b = run(5);
  for (const auto& [o, curve] : a) {
    EXPECT_EQ(curve, b[o]) << option_name(o);
  }
}

TEST(SkillBank, SaveLoadRoundTrip) {
  Rng rng(15);
  SkillConfig cfg;
  SkillBank a(8, cfg, rng);
  SkillBank b(8, cfg, rng);
  const auto dir = std::filesystem::temp_directory_path() / "hero_skills_test";
  std::filesystem::create_directories(dir);
  a.save(dir.string());
  b.load(dir.string());
  std::vector<double> obs(8, 0.1);
  Rng r1(1), r2(1);
  auto a1 = a.policy_action(Option::kLaneChange, obs, r1, true);
  auto a2 = b.policy_action(Option::kLaneChange, obs, r2, true);
  EXPECT_NEAR(a1[0], a2[0], 1e-12);
  EXPECT_NEAR(a1[1], a2[1], 1e-12);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hero::core
