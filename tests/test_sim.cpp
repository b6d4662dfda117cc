// Unit tests for the simulator substrate: geometry primitives, track
// arithmetic, vehicle kinematics, lidar and camera models, and the bitwise
// equivalence of the batch world, its one-env LaneWorld view and the
// all-pairs test oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/batch_lane_world.h"
#include "sim/lane_world.h"
#include "support/sensor_scene.h"
#include "support/sim_oracle.h"

namespace hero::sim {
namespace {

using oracle::Vehicle;

// ------------------------------------------------------------ geometry ----

TEST(Geometry, WrapAngle) {
  EXPECT_NEAR(wrap_angle(0.0), 0.0, 1e-12);
  EXPECT_NEAR(wrap_angle(3 * M_PI), M_PI, 1e-12);
  EXPECT_NEAR(wrap_angle(-3 * M_PI), M_PI, 1e-12);  // (-pi, pi] convention
  EXPECT_NEAR(wrap_angle(M_PI + 0.1), -M_PI + 0.1, 1e-12);
}

TEST(Geometry, Vec2Ops) {
  Vec2 a{1, 2}, b{3, -1};
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
  EXPECT_DOUBLE_EQ(a.cross(b), -7.0);
  EXPECT_DOUBLE_EQ((a + b).x, 4.0);
  EXPECT_DOUBLE_EQ((a - b).y, 3.0);
  EXPECT_NEAR((Vec2{3, 4}).norm(), 5.0, 1e-12);
  Vec2 r = Vec2{1, 0}.rotated(M_PI / 2);
  EXPECT_NEAR(r.x, 0.0, 1e-12);
  EXPECT_NEAR(r.y, 1.0, 1e-12);
}

TEST(Geometry, ObbCorners) {
  Obb box{{0, 0}, 0.0, 2.0, 1.0};
  auto cs = box.corners();
  double max_x = -1e9, max_y = -1e9;
  for (auto& c : cs) {
    max_x = std::max(max_x, c.x);
    max_y = std::max(max_y, c.y);
  }
  EXPECT_NEAR(max_x, 2.0, 1e-12);
  EXPECT_NEAR(max_y, 1.0, 1e-12);
}

TEST(Geometry, ObbOverlapAxisAligned) {
  Obb a{{0, 0}, 0.0, 1.0, 0.5};
  Obb b{{1.5, 0}, 0.0, 1.0, 0.5};
  EXPECT_TRUE(obb_overlap(a, b));  // gap 1.5 < 1+1
  Obb c{{2.5, 0}, 0.0, 1.0, 0.5};
  EXPECT_FALSE(obb_overlap(a, c));
}

TEST(Geometry, ObbOverlapRotated) {
  // Half-0.5 squares: an axis-aligned one at the origin and a 45°-rotated
  // one on the diagonal. Along the diagonal the supports are 0.707 and 0.5,
  // so contact happens at centre distance 1.207 ⇔ offset 0.853 per axis.
  Obb a{{0, 0}, 0.0, 0.5, 0.5};
  Obb b{{0.9, 0.9}, M_PI / 4, 0.5, 0.5};
  EXPECT_FALSE(obb_overlap(a, b));  // 0.9·√2 ≈ 1.273 > 1.207
  Obb c{{0.8, 0.8}, M_PI / 4, 0.5, 0.5};
  EXPECT_TRUE(obb_overlap(a, c));   // 0.8·√2 ≈ 1.131 < 1.207
}

TEST(Geometry, ObbOverlapNeedsAllFourAxes) {
  // Classic SAT case: the x/y projections overlap; only the rotated box's
  // own diagonal axis separates them.
  Obb a{{0, 0}, 0.0, 1.0, 1.0};
  Obb b{{1.6, 1.6}, M_PI / 4, 0.5, 0.5};
  EXPECT_FALSE(obb_overlap(a, b));
  // Slide it in along the diagonal: genuine overlap.
  Obb c{{1.3, 1.3}, M_PI / 4, 0.5, 0.5};
  EXPECT_TRUE(obb_overlap(a, c));
}

TEST(Geometry, RayObbHitsFront) {
  Obb box{{5, 0}, 0.0, 1.0, 1.0};
  auto t = ray_obb({0, 0}, {1, 0}, box);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 4.0, 1e-12);
}

TEST(Geometry, RayObbMisses) {
  Obb box{{5, 3}, 0.0, 1.0, 1.0};
  EXPECT_FALSE(ray_obb({0, 0}, {1, 0}, box).has_value());
}

TEST(Geometry, RayObbFromInsideIsZero) {
  Obb box{{0, 0}, 0.0, 1.0, 1.0};
  auto t = ray_obb({0.2, 0.1}, {1, 0}, box);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 0.0, 1e-12);
}

TEST(Geometry, RayObbRotatedBox) {
  // 45°-rotated square centred at (3, 0): the ray along +x hits the near
  // corner at 3 − √2·half.
  Obb box{{3, 0}, M_PI / 4, 0.5, 0.5};
  auto t = ray_obb({0, 0}, {1, 0}, box);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 3.0 - std::sqrt(2.0) * 0.5, 1e-9);
}

TEST(Geometry, RayObbBehindMisses) {
  Obb box{{-5, 0}, 0.0, 1.0, 1.0};
  EXPECT_FALSE(ray_obb({0, 0}, {1, 0}, box).has_value());
}

TEST(Geometry, RayCircle) {
  auto t = ray_circle({0, 0}, {1, 0}, {5, 0}, 1.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 4.0, 1e-12);
  EXPECT_FALSE(ray_circle({0, 0}, {1, 0}, {5, 2}, 1.0).has_value());
  EXPECT_FALSE(ray_circle({0, 0}, {-1, 0}, {5, 0}, 1.0).has_value());
  EXPECT_NEAR(*ray_circle({5, 0.5}, {1, 0}, {5, 0}, 1.0), 0.0, 1e-12);
}

// --------------------------------------------------------------- track ----

TEST(Track, LaneCenters) {
  Track t({8.0, 0.35, 2});
  EXPECT_DOUBLE_EQ(t.lane_center(0), 0.0);
  EXPECT_DOUBLE_EQ(t.lane_center(1), 0.35);
  EXPECT_THROW(t.lane_center(2), std::logic_error);
}

TEST(Track, LaneOfBoundaries) {
  Track t({8.0, 0.35, 2});
  EXPECT_EQ(t.lane_of(0.0), 0);
  EXPECT_EQ(t.lane_of(0.17), 0);
  EXPECT_EQ(t.lane_of(0.18), 1);
  EXPECT_EQ(t.lane_of(0.35), 1);
  EXPECT_EQ(t.lane_of(-0.5), 0);   // clamped
  EXPECT_EQ(t.lane_of(5.0), 1);    // clamped
}

TEST(Track, OnRoad) {
  Track t({8.0, 0.35, 2});
  EXPECT_TRUE(t.on_road(0.0));
  EXPECT_TRUE(t.on_road(0.52));
  EXPECT_FALSE(t.on_road(0.53));
  EXPECT_TRUE(t.on_road(-0.17));
  EXPECT_FALSE(t.on_road(-0.18));
}

TEST(Track, WrapX) {
  Track t({8.0, 0.35, 2});
  EXPECT_DOUBLE_EQ(t.wrap_x(8.5), 0.5);
  EXPECT_DOUBLE_EQ(t.wrap_x(-0.5), 7.5);
  EXPECT_DOUBLE_EQ(t.wrap_x(16.0), 0.0);
}

TEST(Track, SignedDxShortestPath) {
  Track t({8.0, 0.35, 2});
  EXPECT_DOUBLE_EQ(t.signed_dx(1.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(t.signed_dx(7.5, 0.5), 1.0);    // across the wrap
  EXPECT_DOUBLE_EQ(t.signed_dx(0.5, 7.5), -1.0);
  EXPECT_DOUBLE_EQ(t.signed_dx(0.0, 4.0), 4.0);    // exactly halfway → +C/2
}

TEST(Track, ForwardGap) {
  Track t({8.0, 0.35, 2});
  EXPECT_DOUBLE_EQ(t.forward_gap(1.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(t.forward_gap(7.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(t.forward_gap(3.0, 1.0), 6.0);  // all the way round
}

// -------------------------------------------------------------- vehicle ---

TEST(Vehicle, StraightLineIntegration) {
  Track track({8.0, 0.35, 2});
  Vehicle v(VehicleParams{}, VehicleState{0.0, 0.0, 0.0, 0.0, 0.0});
  v.step({0.1, 0.0}, 0.5, track);
  EXPECT_NEAR(v.state().x, 0.05, 1e-12);
  EXPECT_NEAR(v.state().y, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(v.state().speed, 0.1);
}

TEST(Vehicle, TurningChangesHeadingAndY) {
  Track track({8.0, 0.35, 2});
  Vehicle v(VehicleParams{}, VehicleState{});
  v.step({0.1, 0.2}, 0.5, track);
  EXPECT_NEAR(v.state().heading, 0.1, 1e-12);
  EXPECT_GT(v.state().y, 0.0);  // mid-point integration moves y immediately
}

TEST(Vehicle, ActuatorClamps) {
  Track track({8.0, 0.35, 2});
  VehicleParams p;
  Vehicle v(p, VehicleState{});
  v.step({99.0, 99.0}, 0.5, track);
  EXPECT_DOUBLE_EQ(v.state().speed, p.max_speed);
  EXPECT_DOUBLE_EQ(v.state().yaw_rate, p.max_yaw_rate);
}

TEST(Vehicle, HeadingClamp) {
  Track track({8.0, 0.35, 2});
  VehicleParams p;
  Vehicle v(p, VehicleState{});
  for (int i = 0; i < 100; ++i) v.step({0.1, p.max_yaw_rate}, 0.5, track);
  EXPECT_LE(v.state().heading, p.max_heading + 1e-12);
}

TEST(Vehicle, WrapsAroundTrack) {
  Track track({8.0, 0.35, 2});
  Vehicle v(VehicleParams{}, VehicleState{7.95, 0.0, 0.0, 0.0, 0.0});
  v.step({0.2, 0.0}, 0.5, track);
  EXPECT_LT(v.state().x, 0.1);
}

TEST(Vehicle, FootprintMatchesPose) {
  Vehicle v(VehicleParams{}, VehicleState{1.0, 0.2, 0.3, 0.0, 0.0});
  Obb f = v.footprint();
  EXPECT_DOUBLE_EQ(f.center.x, 1.0);
  EXPECT_DOUBLE_EQ(f.center.y, 0.2);
  EXPECT_DOUBLE_EQ(f.heading, 0.3);
  EXPECT_DOUBLE_EQ(f.half_len, 0.15);
  EXPECT_DOUBLE_EQ(f.half_wid, 0.09);
}

// ---------------------------------------------------------------- lidar ---

std::vector<VehicleState> two_vehicles(double gap, int lane2, const Track& track) {
  return {VehicleState{1.0, 0.0, 0.0, 0.1, 0.0},
          VehicleState{track.wrap_x(1.0 + gap), lane2 * track.lane_width(), 0.0,
                       0.1, 0.0}};
}

TEST(Lidar, FrontBeamSeesLeader) {
  Track track({8.0, 0.35, 2});
  auto vs = two_vehicles(1.0, 0, track);
  LidarSensor lidar({16, 2.0, 0.0});
  auto scan = scene_scan(lidar, vs, 0, track);
  ASSERT_EQ(scan.size(), 16u);
  // Beam 0 hits the leader's rear face: 1.0 − half_len = 0.85, /2.0 = 0.425.
  EXPECT_NEAR(scan[0], 0.425, 1e-9);
}

TEST(Lidar, RearBeamSeesFollowerAcrossWrap) {
  Track track({8.0, 0.35, 2});
  // Ego at x = 0.2; other at x = 7.6 — behind, across the wrap.
  const std::vector<VehicleState> vs{{0.2, 0.0, 0.0, 0.1, 0.0},
                                     {7.6, 0.0, 0.0, 0.1, 0.0}};
  LidarSensor lidar({16, 2.0, 0.0});
  auto scan = scene_scan(lidar, vs, 0, track);
  // Beam 8 points backwards; raw gap 0.6 − 0.15 = 0.45, /2.0 = 0.225.
  EXPECT_NEAR(scan[8], 0.225, 1e-9);
  EXPECT_NEAR(scan[0], 1.0, 1e-9);  // nothing ahead within range
}

TEST(Lidar, OutOfRangeIsOne) {
  Track track({8.0, 0.35, 2});
  auto vs = two_vehicles(3.5, 0, track);
  LidarSensor lidar({16, 2.0, 0.0});
  auto scan = scene_scan(lidar, vs, 0, track);
  for (double r : scan) EXPECT_DOUBLE_EQ(r, 1.0);
}

TEST(Lidar, SideBeamSeesAdjacentLane) {
  Track track({8.0, 0.35, 2});
  const std::vector<VehicleState> vs{
      {1.0, 0.0, 0.0, 0.1, 0.0},
      {1.0, 0.35, 0.0, 0.1, 0.0}};  // directly left
  LidarSensor lidar({16, 2.0, 0.0});
  auto scan = scene_scan(lidar, vs, 0, track);
  // Beam 4 (90°) hits the neighbour's near side: 0.35 − 0.09 = 0.26, /2 = 0.13.
  EXPECT_NEAR(scan[4], 0.13, 1e-9);
}

TEST(Lidar, NoiseIsBoundedAndSeeded) {
  Track track({8.0, 0.35, 2});
  auto vs = two_vehicles(1.0, 0, track);
  LidarSensor lidar({16, 2.0, 0.05});
  Rng r1(5), r2(5);
  auto s1 = scene_scan(lidar, vs, 0, track, &r1);
  auto s2 = scene_scan(lidar, vs, 0, track, &r2);
  EXPECT_EQ(s1, s2);  // same seed, same noise
  for (double v : s1) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_NE(s1[0], 0.425);  // noise actually applied
}

// --------------------------------------------------------------- camera ---

TEST(LaneCamera, CenteredVehicleHasZeroOffset) {
  Track track({8.0, 0.35, 2});
  const std::vector<VehicleState> vs{{1.0, 0.0, 0.0, 0.1, 0.0}};
  LaneCamera cam;
  auto f = scene_features(cam, vs, 0, track, /*reference_lane=*/0);
  ASSERT_EQ(f.size(), kLaneCameraDim);
  EXPECT_NEAR(f[0], 0.0, 1e-12);   // lateral offset
  EXPECT_NEAR(f[1], 0.0, 1e-12);   // sin(heading)
  EXPECT_NEAR(f[2], 1.0, 1e-12);   // cos(heading)
  EXPECT_NEAR(f[3], 1.0, 1e-12);   // no leader
  EXPECT_NEAR(f[5], 1.0, 1e-12);   // other lane is one width away
}

TEST(LaneCamera, OffsetRelativeToReferenceLane) {
  Track track({8.0, 0.35, 2});
  const std::vector<VehicleState> vs{{1.0, 0.1, 0.0, 0.1, 0.0}};
  LaneCamera cam;
  auto f0 = scene_features(cam, vs, 0, track, 0);
  auto f1 = scene_features(cam, vs, 0, track, 1);
  EXPECT_NEAR(f0[0], 0.1 / 0.35, 1e-12);
  EXPECT_NEAR(f1[0], (0.1 - 0.35) / 0.35, 1e-12);
  // The "remaining manoeuvre" feature flips sign with the reference lane.
  EXPECT_NEAR(f0[5], 1.0, 1e-12);
  EXPECT_NEAR(f1[5], -1.0, 1e-12);
}

TEST(LaneCamera, DetectsLeaderGapAndRelativeSpeed) {
  Track track({8.0, 0.35, 2});
  VehicleParams p;
  const std::vector<VehicleState> vs{{1.0, 0.0, 0.0, 0.10, 0.0},
                                     {1.8, 0.0, 0.0, 0.04, 0.0}};
  LaneCamera cam({2.0, 0.0});
  auto f = scene_features(cam, vs, 0, track, 0);
  EXPECT_NEAR(f[3], 0.8 / 2.0, 1e-12);
  EXPECT_NEAR(f[4], (0.04 - 0.10) / p.max_speed, 1e-12);
}

TEST(LaneCamera, IgnoresOtherLaneVehicles) {
  Track track({8.0, 0.35, 2});
  const std::vector<VehicleState> vs{
      {1.0, 0.0, 0.0, 0.10, 0.0},
      {1.5, 0.35, 0.0, 0.04, 0.0}};  // other lane
  LaneCamera cam;
  auto f = scene_features(cam, vs, 0, track, 0);
  EXPECT_NEAR(f[3], 1.0, 1e-12);
}

// --- batch world, LaneWorld view and oracle equivalence (docs/BATCHING.md) -
//
// The batch world's contract is *bitwise* equality with the all-pairs
// oracle given the same config, state, and RNG stream, and the LaneWorld
// view must add nothing of its own — every EXPECT_EQ below is an exact
// double comparison on purpose.

LaneWorldConfig batch_test_config(int learners, bool with_plodder) {
  LaneWorldConfig cfg;
  cfg.track = {8.0, 0.35, 2};
  cfg.dt = 0.5;
  cfg.max_steps = 12;
  for (int i = 0; i < learners; ++i) {
    VehicleSpec s;
    s.start_lane = i % 2;
    s.start_x = 1.3 * i;
    s.start_x_jitter = 0.4;
    s.start_speed = 0.1;
    cfg.specs.push_back(s);
  }
  if (with_plodder) {
    VehicleSpec s;
    s.start_lane = 0;
    s.start_x = 1.3 * learners + 1.0;
    s.scripted = true;
    s.scripted_speed = 0.04;
    cfg.specs.push_back(s);
  }
  return cfg;
}

void check_same_state(const VehicleState& a, const VehicleState& b, int i,
                       int step) {
  ASSERT_EQ(a.x, b.x) << "vehicle " << i << " step " << step;
  ASSERT_EQ(a.y, b.y) << "vehicle " << i << " step " << step;
  ASSERT_EQ(a.heading, b.heading) << "vehicle " << i << " step " << step;
  ASSERT_EQ(a.speed, b.speed) << "vehicle " << i << " step " << step;
  ASSERT_EQ(a.yaw_rate, b.yaw_rate) << "vehicle " << i << " step " << step;
}

// Steps the oracle, env `e` of a batched world and a LaneWorld view in
// lockstep with bit-identical command and world RNG streams, comparing
// everything after every step (void so ASSERT_* can bail out).
void run_lockstep_compare(const LaneWorldConfig& cfg, BatchLaneWorld& bw, int e,
                          unsigned world_seed, unsigned cmd_seed) {
  oracle::LaneWorld sw(cfg);
  LaneWorld vw(cfg);
  Rng oracle_rng(world_seed), batch_rng(world_seed), view_rng(world_seed);
  Rng cmd_rng(cmd_seed);
  sw.reset(oracle_rng);
  bw.reset_env(e, batch_rng);
  vw.reset(view_rng);

  const int n = sw.num_learners();
  std::vector<TwistCmd> cmds(static_cast<std::size_t>(n));
  std::vector<TwistCmd> bcmds(static_cast<std::size_t>(bw.num_envs()) *
                              static_cast<std::size_t>(n));
  std::vector<std::uint8_t> active(static_cast<std::size_t>(bw.num_envs()), 0);
  active[static_cast<std::size_t>(e)] = 1;
  BatchStepResult bout;
  std::vector<double> bobs(bw.high_level_obs_dim());
  std::vector<double> bl(bw.low_level_obs_dim());
  Rng* rngs[64] = {};
  rngs[e] = &batch_rng;

  int steps = 0;
  while (!sw.done()) {
    for (int k = 0; k < n; ++k) {
      const TwistCmd c{cmd_rng.uniform(0.0, 0.2), cmd_rng.uniform(-0.5, 0.5)};
      cmds[static_cast<std::size_t>(k)] = c;
      bcmds[static_cast<std::size_t>(e * n + k)] = c;
    }
    auto sout = sw.step(cmds, oracle_rng);
    bw.step_all(bcmds.data(), rngs, active.data(), bout);
    auto vout = vw.step(cmds, view_rng);
    ++steps;

    ASSERT_EQ(sw.steps(), bw.steps(e));
    ASSERT_EQ(sw.done(), bw.done(e));
    ASSERT_EQ(sout.collision, bout.collision[static_cast<std::size_t>(e)] != 0);
    // The view's whole StepResult, against the oracle's.
    ASSERT_EQ(sout.reward, vout.reward) << "step " << steps;
    ASSERT_EQ(sout.travel, vout.travel) << "step " << steps;
    ASSERT_EQ(sout.collision, vout.collision) << "step " << steps;
    ASSERT_EQ(sout.collided, vout.collided) << "step " << steps;
    ASSERT_EQ(sout.done, vout.done) << "step " << steps;
    ASSERT_EQ(sw.steps(), vw.steps());
    ASSERT_EQ(sw.done(), vw.done());
    for (int i = 0; i < sw.num_vehicles(); ++i) {
      const VehicleState a = sw.state(i);
      check_same_state(a, bw.state(e, i), i, steps);
      check_same_state(a, vw.state(i), i, steps);
      ASSERT_EQ(sout.travel[static_cast<std::size_t>(i)],
                bout.travel[static_cast<std::size_t>(e * sw.num_vehicles() + i)]);
      ASSERT_EQ(sw.total_travel(i), bw.total_travel(e, i));
      ASSERT_EQ(sw.total_travel(i), vw.total_travel(i));
      ASSERT_EQ(sw.mean_speed(i), bw.mean_speed(e, i));
      ASSERT_EQ(sw.mean_speed(i), vw.mean_speed(i));
      ASSERT_EQ(sw.lane(i), vw.lane(i));
    }
    for (int k = 0; k < n; ++k) {
      ASSERT_EQ(sout.reward[static_cast<std::size_t>(k)],
                bout.reward[static_cast<std::size_t>(e * n + k)]);
    }
    // Observations from the same post-step state must match bitwise too.
    for (int i = 0; i < sw.num_vehicles(); ++i) {
      auto sh = sw.high_level_obs(i);
      bw.high_level_obs_into(e, i, bobs.data());
      ASSERT_EQ(sh, vw.high_level_obs(i)) << "vehicle " << i << " step " << steps;
      for (std::size_t d = 0; d < sh.size(); ++d) ASSERT_EQ(sh[d], bobs[d]);
      for (int ref = 0; ref < sw.track().num_lanes(); ++ref) {
        auto sl = sw.low_level_obs(i, ref);
        bw.low_level_obs_into(e, i, ref, bl.data());
        ASSERT_EQ(sl, vw.low_level_obs(i, ref)) << "vehicle " << i << " step " << steps;
        for (std::size_t d = 0; d < sl.size(); ++d) ASSERT_EQ(sl[d], bl[d]);
      }
    }
  }
  EXPECT_GT(steps, 0);
  EXPECT_TRUE(bw.done(e));
  EXPECT_TRUE(vw.done());
  EXPECT_EQ(sw.had_collision(), bw.had_collision(e));
  EXPECT_EQ(sw.had_collision(), vw.had_collision());
}

TEST(BatchLaneWorld, SingleEnvMatchesSerialBitwise) {
  const auto cfg = batch_test_config(3, true);
  BatchLaneWorld bw(cfg, 1);
  for (unsigned seed = 0; seed < 8; ++seed) {
    run_lockstep_compare(cfg, bw, 0, 100 + seed, 900 + seed);
  }
}

TEST(BatchLaneWorld, SingleEnvMatchesSerialUnderRealWorldShift) {
  // Latency rings, actuation noise draws, and per-episode dynamics jitter
  // all consume RNG in the oracle's order.
  const auto cfg = with_real_world_shift(batch_test_config(3, true));
  BatchLaneWorld bw(cfg, 1);
  for (unsigned seed = 0; seed < 8; ++seed) {
    run_lockstep_compare(cfg, bw, 0, 200 + seed, 800 + seed);
  }
}

TEST(BatchLaneWorld, SixteenEnvsMatchSixteenSerialRuns) {
  // Every env of a 16-wide batch must reproduce its oracle twin bitwise when
  // both consume the same counter-based stream — env order in the batch must
  // not leak between lanes.
  const auto cfg = with_real_world_shift(batch_test_config(2, true));
  BatchLaneWorld bw(cfg, 16);
  for (int e = 0; e < 16; ++e) {
    run_lockstep_compare(cfg, bw, e, 3000 + static_cast<unsigned>(e),
                         4000 + static_cast<unsigned>(e));
  }
}

TEST(BatchLaneWorld, BroadPhaseCollisionSetMatchesAllPairs) {
  // Randomized scenes: scatter vehicles (sometimes clustered, sometimes
  // off-road) and check the sorted-sweep collision set — of the batch world
  // and of its LaneWorld view — equals the oracle's all-pairs OBB result
  // exactly.
  auto cfg = batch_test_config(6, false);
  for (auto& sp : cfg.specs) sp.start_x_jitter = 0.0;  // keep streams trivial
  oracle::LaneWorld sw(cfg);
  BatchLaneWorld bw(cfg, 1);
  LaneWorld vw(cfg);
  Rng scene(42);
  const int n = sw.num_learners();
  std::vector<TwistCmd> cmds(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> active{1};
  BatchStepResult bout;
  int collisions_seen = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Rng r1(7), r2(7), r3(7);
    sw.reset(r1);
    bw.reset_env(0, r2);
    vw.reset(r3);
    for (int i = 0; i < sw.num_vehicles(); ++i) {
      VehicleState st;
      // Cluster positions so overlaps actually happen; occasionally push a
      // vehicle off-road to exercise the off-road branch.
      st.x = scene.uniform(0.0, trial % 3 == 0 ? 1.5 : 8.0);
      st.y = scene.uniform(-0.4, 0.75);
      st.heading = scene.uniform(-0.8, 0.8);
      st.speed = scene.uniform(0.0, 0.2);
      sw.set_state(i, st);
      bw.set_state(0, i, st);
      vw.set_state(i, st);
    }
    for (auto& c : cmds) c = {scene.uniform(0.0, 0.2), scene.uniform(-0.5, 0.5)};
    Rng w1(9), w2(9), w3(9);
    Rng* rngs[1] = {&w2};
    auto sout = sw.step(cmds, w1);
    bw.step_all(cmds.data(), rngs, active.data(), bout);
    auto vout = vw.step(cmds, w3);
    if (sout.collision) ++collisions_seen;
    ASSERT_EQ(sout.collision, bout.collision[0] != 0) << "trial " << trial;
    std::vector<int> bhit;
    for (int i = 0; i < sw.num_vehicles(); ++i) {
      if (bw.hit(0, i)) bhit.push_back(i);
    }
    ASSERT_EQ(sout.collided, bhit) << "trial " << trial;
    ASSERT_EQ(sout.collided, vout.collided) << "trial " << trial;
  }
  // The scene generator must actually produce both outcomes.
  EXPECT_GT(collisions_seen, 10);
  EXPECT_LT(collisions_seen, 300);
}

}  // namespace
}  // namespace hero::sim
