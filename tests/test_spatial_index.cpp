// SpatialIndex unit tests and the sensing-equivalence suite: the shared
// arc-length index (and the lidar's angular-interval cull) are conservative
// pruners, so every observation and collision set must stay *bitwise*
// identical to the all-pairs test oracle (support/sim_oracle.h) — every
// EXPECT/ASSERT_EQ on a double below is an exact comparison on purpose
// (docs/PERFORMANCE.md, "Spatial neighbor index"). Also covers the
// declarative scenario loader that feeds the dense-traffic benchmark.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "sim/lidar.h"
#include "sim/scenario.h"
#include "sim/spatial_index.h"
#include "support/sim_oracle.h"

namespace hero::sim {
namespace {

// --------------------------------------------------------- SpatialIndex ---

std::vector<int> query_ids(const SpatialIndex& idx, double x0, double behind,
                           double ahead, int exclude = -1) {
  const int* ids = nullptr;
  const int m = idx.query(x0, behind, ahead, exclude, &ids);
  return std::vector<int>(ids, ids + m);
}

TEST(SpatialIndex, SortsByPositionThenId) {
  const double xs[] = {5.0, 1.0, 3.0};
  SpatialIndex idx;
  idx.build(xs, 3, 8.0);
  ASSERT_TRUE(idx.built());
  ASSERT_EQ(idx.size(), 3);
  EXPECT_EQ(idx.id(0), 1);
  EXPECT_EQ(idx.id(1), 2);
  EXPECT_EQ(idx.id(2), 0);
  EXPECT_DOUBLE_EQ(idx.pos(0), 1.0);
  EXPECT_DOUBLE_EQ(idx.pos(1), 3.0);
  EXPECT_DOUBLE_EQ(idx.pos(2), 5.0);
}

TEST(SpatialIndex, EqualPositionsTieBreakById) {
  const double xs[] = {2.0, 2.0, 2.0, 1.0};
  SpatialIndex idx;
  idx.build(xs, 4, 8.0);
  EXPECT_EQ(idx.id(0), 3);
  EXPECT_EQ(idx.id(1), 0);
  EXPECT_EQ(idx.id(2), 1);
  EXPECT_EQ(idx.id(3), 2);
  EXPECT_EQ(query_ids(idx, 2.0, 0.0, 0.0), (std::vector<int>{0, 1, 2}));
}

TEST(SpatialIndex, WindowQueryIsInclusiveAndAscending) {
  const double xs[] = {5.0, 1.0, 3.0};
  SpatialIndex idx;
  idx.build(xs, 3, 8.0);
  // [0.5, 3.5] — both endpoints of [1.0, 3.0] membership are inclusive.
  EXPECT_EQ(query_ids(idx, 1.0, 0.5, 2.5), (std::vector<int>{1, 2}));
  EXPECT_EQ(query_ids(idx, 2.0, 1.0, 1.0), (std::vector<int>{1, 2}));
  EXPECT_EQ(query_ids(idx, 1.0, 0.0, 0.0), (std::vector<int>{1}));
}

TEST(SpatialIndex, WindowAcrossWrapSeam) {
  const double xs[] = {0.2, 4.0, 7.8};
  SpatialIndex idx;
  idx.build(xs, 3, 8.0);
  // [7.5, 0.5] wrapped: catches both neighbors of the seam, not the far one.
  EXPECT_EQ(query_ids(idx, 0.0, 0.5, 0.5), (std::vector<int>{0, 2}));
  EXPECT_EQ(query_ids(idx, 7.9, 0.5, 0.5), (std::vector<int>{0, 2}));
}

TEST(SpatialIndex, ExcludeDropsOnlyThatId) {
  const double xs[] = {0.2, 4.0, 7.8};
  SpatialIndex idx;
  idx.build(xs, 3, 8.0);
  EXPECT_EQ(query_ids(idx, 0.0, 0.5, 0.5, /*exclude=*/0),
            (std::vector<int>{2}));
}

TEST(SpatialIndex, FullRingWindowReturnsEveryoneElse) {
  const double xs[] = {0.2, 4.0, 7.8, 2.2};
  SpatialIndex idx;
  idx.build(xs, 4, 8.0);
  EXPECT_EQ(query_ids(idx, 3.0, 4.0, 4.0, /*exclude=*/1),
            (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(query_ids(idx, 3.0, 8.0, 8.0), (std::vector<int>{0, 1, 2, 3}));
}

TEST(SpatialIndex, RandomizedQueriesMatchBruteForce) {
  Rng rng(11);
  SpatialIndex idx;
  for (int trial = 0; trial < 200; ++trial) {
    const double circ = rng.uniform(4.0, 50.0);
    const int n = 1 + static_cast<int>(rng.uniform(0.0, 40.0));
    std::vector<double> xs(static_cast<std::size_t>(n));
    for (double& x : xs) x = rng.uniform(0.0, circ);
    idx.build(xs.data(), n, circ);

    const double x0 = rng.uniform(0.0, circ);
    const double behind = rng.uniform(0.0, 0.7 * circ);
    const double ahead = rng.uniform(0.0, 0.7 * circ);
    const int exclude = trial % 2 == 0 ? trial % n : -1;

    // Brute force with the documented window arithmetic, so the comparison
    // is exact (no fmod round-off mismatch).
    std::vector<int> expect;
    if (behind + ahead >= circ) {
      for (int i = 0; i < n; ++i) {
        if (i != exclude) expect.push_back(i);
      }
    } else {
      double lo = x0 - behind;
      if (lo < 0.0) lo += circ;
      double hi = x0 + ahead;
      if (hi >= circ) hi -= circ;
      for (int i = 0; i < n; ++i) {
        const double p = xs[static_cast<std::size_t>(i)];
        const bool in = lo <= hi ? (p >= lo && p <= hi) : (p >= lo || p <= hi);
        if (in && i != exclude) expect.push_back(i);
      }
    }
    ASSERT_EQ(query_ids(idx, x0, behind, ahead, exclude), expect)
        << "trial " << trial << " circ " << circ << " window [" << x0 << " -"
        << behind << " +" << ahead << "]";
  }
}

// ---------------------------------------------- lidar angular-cull phase ---

TEST(LidarCull, MatchesAllPairsOnRandomBoxSets) {
  Rng rng(23);
  LidarSensor lidar({24, 2.0, 0.0});
  std::vector<Obb> boxes;
  std::vector<double> culled(24), reference(24);
  for (int trial = 0; trial < 300; ++trial) {
    boxes.clear();
    const int nb = static_cast<int>(rng.uniform(0.0, 12.0));
    for (int b = 0; b < nb; ++b) {
      // Mix of far, near, and occasionally ego-enclosing boxes.
      const double spread = trial % 4 == 0 ? 0.3 : 2.5;
      boxes.push_back(Obb{{rng.uniform(-spread, spread),
                           rng.uniform(-spread, spread)},
                          rng.uniform(-M_PI, M_PI),
                          rng.uniform(0.05, 0.3),
                          rng.uniform(0.03, 0.2)});
    }
    const double heading = rng.uniform(-M_PI, M_PI);
    lidar.scan_into(0.0, 0.0, heading, boxes.data(), boxes.size(), nullptr,
                    culled.data());
    oracle::scan_allpairs(lidar.config(), 0.0, 0.0, heading, boxes.data(),
                          boxes.size(), nullptr, reference.data());
    for (int b = 0; b < 24; ++b) {
      ASSERT_EQ(culled[static_cast<std::size_t>(b)],
                reference[static_cast<std::size_t>(b)])
          << "trial " << trial << " beam " << b;
    }
  }
}

TEST(LidarCull, ApproxAtan2ErrorStaysWithinCullMargin) {
  // The beam cull locates a box's centre with approx_atan2 and widens its
  // interval by kLidarAtanApproxMaxErr; conservativeness therefore rests on
  // the approximation error never exceeding that constant. Sweep the full
  // circle densely plus randomized points, comparing against std::atan2 on
  // the wrapped difference (the ±π seam is a 2π jump, not an error).
  const auto wrapped_err = [](double approx, double exact) {
    double d = approx - exact;
    if (d > M_PI) d -= 2.0 * M_PI;
    if (d < -M_PI) d += 2.0 * M_PI;
    return std::abs(d);
  };
  double worst = 0.0;
  for (int i = 0; i < 2000000; ++i) {
    const double theta = -M_PI + 2.0 * M_PI * (static_cast<double>(i) + 0.5) /
                                     2000000.0;
    const double x = std::cos(theta);
    const double y = std::sin(theta);
    worst = std::max(worst, wrapped_err(approx_atan2(y, x), std::atan2(y, x)));
  }
  Rng rng(31);
  for (int i = 0; i < 500000; ++i) {
    const double x = rng.uniform(-3.0, 3.0);
    const double y = rng.uniform(-3.0, 3.0);
    if (x == 0.0 && y == 0.0) continue;
    worst = std::max(worst, wrapped_err(approx_atan2(y, x), std::atan2(y, x)));
  }
  EXPECT_LT(worst, kLidarAtanApproxMaxErr)
      << "cull margin no longer covers the atan2 approximation error";
}

TEST(LidarCull, PreservesNoiseDrawOrder) {
  // Noise is applied per beam in ascending order *after* the box loop, so a
  // same-seeded stream must produce identical scans on both narrow phases.
  Rng rng(29);
  LidarSensor lidar({24, 2.0, 0.05});
  std::vector<Obb> boxes;
  std::vector<double> culled(24), reference(24);
  for (int trial = 0; trial < 100; ++trial) {
    boxes.clear();
    const int nb = static_cast<int>(rng.uniform(0.0, 8.0));
    for (int b = 0; b < nb; ++b) {
      boxes.push_back(Obb{{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)},
                          rng.uniform(-M_PI, M_PI), 0.15, 0.09});
    }
    Rng n1(400 + static_cast<unsigned>(trial));
    Rng n2(400 + static_cast<unsigned>(trial));
    lidar.scan_into(0.0, 0.0, 0.3, boxes.data(), boxes.size(), &n1,
                    culled.data());
    oracle::scan_allpairs(lidar.config(), 0.0, 0.0, 0.3, boxes.data(),
                          boxes.size(), &n2, reference.data());
    for (int b = 0; b < 24; ++b) {
      ASSERT_EQ(culled[static_cast<std::size_t>(b)],
                reference[static_cast<std::size_t>(b)])
          << "trial " << trial << " beam " << b;
    }
  }
}

// ------------------------------------------- world sensing equivalence ----

LaneWorldConfig sensing_test_config(int vehicles) {
  LaneWorldConfig cfg;
  cfg.track = {8.0, 0.35, 2};
  cfg.dt = 0.5;
  cfg.max_steps = 12;
  for (int i = 0; i < vehicles; ++i) {
    VehicleSpec s;
    s.start_lane = i % 2;
    s.start_x = 0.9 * i;
    s.start_speed = 0.1;
    s.scripted = i == vehicles - 1;  // one plodder
    cfg.specs.push_back(s);
  }
  return cfg;
}

VehicleState random_state(Rng& rng, double circumference, bool clustered) {
  VehicleState st;
  st.x = rng.uniform(0.0, clustered ? 1.5 : circumference);
  st.y = rng.uniform(-0.4, 0.75);
  st.heading = rng.uniform(-0.8, 0.8);
  st.speed = rng.uniform(0.0, 0.2);
  return st;
}

// The squared-distance reach prune must make exactly the same keep/skip
// decision as the hypot compare it replaced, including at the threshold
// itself: sweep an obstacle across the prune boundary and require bitwise
// obs agreement between the pruned production path and the unpruned oracle
// at every offset.
TEST(SensingEquivalence, ReachPruneBoundaryIsExact) {
  const auto cfg = sensing_test_config(2);
  LaneWorld won(cfg);
  oracle::LaneWorld woff(cfg);
  const double reach =
      std::hypot(0.5 * cfg.vehicle.length, 0.5 * cfg.vehicle.width);
  const double thr = cfg.lidar.max_range + reach + 1e-9;
  const double offsets[] = {-1e-3, -1e-12, 0.0, 1e-12, 1e-3, -1.2};
  std::vector<double> on(won.high_level_obs_dim());
  std::vector<double> off(woff.high_level_obs_dim());
  for (const double d : offsets) {
    VehicleState ego;
    ego.x = 1.0;
    ego.speed = 0.1;
    VehicleState other;
    other.x = won.track().wrap_x(1.0 + thr + d);
    other.speed = 0.1;
    won.set_state(0, ego);
    won.set_state(1, other);
    woff.set_state(0, ego);
    woff.set_state(1, other);
    won.high_level_obs_into(0, on.data());
    woff.high_level_obs_into(0, off.data());
    for (std::size_t k = 0; k < on.size(); ++k) {
      ASSERT_EQ(on[k], off[k]) << "offset " << d << " dim " << k;
    }
  }
  // Sanity: a genuinely near leader is visible on both paths.
  VehicleState near = won.state(1);
  near.x = 2.0;
  won.set_state(1, near);
  woff.set_state(1, near);
  won.high_level_obs_into(0, on.data());
  woff.high_level_obs_into(0, off.data());
  EXPECT_EQ(on[0], off[0]);
  EXPECT_NEAR(on[0], 0.425, 1e-9);  // (1.0 − half_len) / max_range
}

TEST(SensingEquivalence, SerialIndexedMatchesAllPairsOn300RandomScenes) {
  const auto cfg = sensing_test_config(8);
  LaneWorld won(cfg);
  oracle::LaneWorld woff(cfg);
  Rng scene(77);
  const int n = won.num_learners();
  const int v = won.num_vehicles();
  std::vector<double> hl_on(won.high_level_obs_dim());
  std::vector<double> hl_off(woff.high_level_obs_dim());
  std::vector<double> ll_on(won.low_level_obs_dim());
  std::vector<double> ll_off(woff.low_level_obs_dim());
  std::vector<TwistCmd> cmds(static_cast<std::size_t>(n));
  int collisions_seen = 0;
  for (int trial = 0; trial < 300; ++trial) {
    {
      // Clear any done/collision state from the previous trial's step; the
      // identical seeds keep both worlds' reset draws in lockstep.
      Rng r1(7), r2(7);
      won.reset(r1);
      woff.reset(r2);
    }
    for (int i = 0; i < v; ++i) {
      const VehicleState st =
          random_state(scene, cfg.track.circumference, trial % 3 == 0);
      won.set_state(i, st);
      woff.set_state(i, st);
    }
    for (int i = 0; i < v; ++i) {
      won.high_level_obs_into(i, hl_on.data());
      woff.high_level_obs_into(i, hl_off.data());
      for (std::size_t k = 0; k < hl_on.size(); ++k) {
        ASSERT_EQ(hl_on[k], hl_off[k]) << "trial " << trial << " vehicle " << i;
      }
      for (int ref = 0; ref < won.track().num_lanes(); ++ref) {
        won.low_level_obs_into(i, ref, ll_on.data());
        woff.low_level_obs_into(i, ref, ll_off.data());
        for (std::size_t k = 0; k < ll_on.size(); ++k) {
          ASSERT_EQ(ll_on[k], ll_off[k])
              << "trial " << trial << " vehicle " << i << " ref " << ref;
        }
      }
    }
    // One step with identical streams: the indexed broad-phase must produce
    // the exact all-pairs collision set and rewards.
    for (auto& c : cmds) c = {scene.uniform(0.0, 0.2), scene.uniform(-0.5, 0.5)};
    Rng r1(500 + static_cast<unsigned>(trial));
    Rng r2(500 + static_cast<unsigned>(trial));
    auto out_on = won.step(cmds, r1);
    auto out_off = woff.step(cmds, r2);
    ASSERT_EQ(out_on.collided, out_off.collided) << "trial " << trial;
    ASSERT_EQ(out_on.reward, out_off.reward) << "trial " << trial;
    if (out_on.collision) ++collisions_seen;
  }
  EXPECT_GT(collisions_seen, 10);  // the generator exercises both outcomes
  EXPECT_LT(collisions_seen, 300);
}

TEST(SensingEquivalence, SerialNoisyObsMatchWithSameSeed) {
  auto cfg = sensing_test_config(6);
  cfg.lidar.noise_stddev = 0.05;
  cfg.camera.noise_stddev = 0.05;
  LaneWorld won(cfg);
  oracle::LaneWorld woff(cfg);
  Rng scene(91);
  std::vector<double> hl_on(won.high_level_obs_dim());
  std::vector<double> hl_off(woff.high_level_obs_dim());
  std::vector<double> ll_on(won.low_level_obs_dim());
  std::vector<double> ll_off(woff.low_level_obs_dim());
  for (int trial = 0; trial < 50; ++trial) {
    for (int i = 0; i < won.num_vehicles(); ++i) {
      const VehicleState st =
          random_state(scene, cfg.track.circumference, trial % 2 == 0);
      won.set_state(i, st);
      woff.set_state(i, st);
    }
    for (int i = 0; i < won.num_vehicles(); ++i) {
      Rng n1(700 + static_cast<unsigned>(trial));
      Rng n2(700 + static_cast<unsigned>(trial));
      won.high_level_obs_into(i, hl_on.data(), &n1);
      woff.high_level_obs_into(i, hl_off.data(), &n2);
      for (std::size_t k = 0; k < hl_on.size(); ++k) {
        ASSERT_EQ(hl_on[k], hl_off[k]) << "trial " << trial << " vehicle " << i;
      }
      won.low_level_obs_into(i, 1, ll_on.data(), &n1);
      woff.low_level_obs_into(i, 1, ll_off.data(), &n2);
      for (std::size_t k = 0; k < ll_on.size(); ++k) {
        ASSERT_EQ(ll_on[k], ll_off[k]) << "trial " << trial << " vehicle " << i;
      }
    }
  }
}

TEST(SensingEquivalence, BatchSingleEnvMatchesAllPairsOn300RandomScenes) {
  const auto cfg = sensing_test_config(8);
  BatchLaneWorld bw(cfg, 1);
  oracle::LaneWorld ref(cfg);
  Rng scene(123);
  std::vector<double> hl_b(bw.high_level_obs_dim());
  std::vector<double> hl_r(ref.high_level_obs_dim());
  std::vector<double> ll_b(bw.low_level_obs_dim());
  std::vector<double> ll_r(ref.low_level_obs_dim());
  for (int trial = 0; trial < 300; ++trial) {
    for (int i = 0; i < ref.num_vehicles(); ++i) {
      const VehicleState st =
          random_state(scene, cfg.track.circumference, trial % 3 == 0);
      bw.set_state(0, i, st);
      ref.set_state(i, st);
    }
    for (int i = 0; i < ref.num_vehicles(); ++i) {
      bw.high_level_obs_into(0, i, hl_b.data());
      ref.high_level_obs_into(i, hl_r.data());
      for (std::size_t k = 0; k < hl_b.size(); ++k) {
        ASSERT_EQ(hl_b[k], hl_r[k]) << "trial " << trial << " vehicle " << i;
      }
      for (int lane = 0; lane < ref.track().num_lanes(); ++lane) {
        bw.low_level_obs_into(0, i, lane, ll_b.data());
        ref.low_level_obs_into(i, lane, ll_r.data());
        for (std::size_t k = 0; k < ll_b.size(); ++k) {
          ASSERT_EQ(ll_b[k], ll_r[k])
              << "trial " << trial << " vehicle " << i << " lane " << lane;
        }
      }
    }
  }
}

TEST(SensingEquivalence, BatchSixteenEnvsMatchAllPairsReference) {
  const auto cfg = sensing_test_config(6);
  BatchLaneWorld bw(cfg, 16);
  oracle::LaneWorld ref(cfg);
  Rng scene(321);
  std::vector<double> hl_b(bw.high_level_obs_dim());
  std::vector<double> hl_r(ref.high_level_obs_dim());
  std::vector<double> ll_b(bw.low_level_obs_dim());
  std::vector<double> ll_r(ref.low_level_obs_dim());
  std::vector<VehicleState> states(
      static_cast<std::size_t>(16 * ref.num_vehicles()));
  for (int round = 0; round < 20; ++round) {
    // Populate all 16 envs first, then compare — a per-env index that leaked
    // state across lanes would fail here.
    for (int e = 0; e < 16; ++e) {
      for (int i = 0; i < ref.num_vehicles(); ++i) {
        const VehicleState st =
            random_state(scene, cfg.track.circumference, (round + e) % 3 == 0);
        states[static_cast<std::size_t>(e * ref.num_vehicles() + i)] = st;
        bw.set_state(e, i, st);
      }
    }
    for (int e = 0; e < 16; ++e) {
      for (int i = 0; i < ref.num_vehicles(); ++i) {
        ref.set_state(i, states[static_cast<std::size_t>(e * ref.num_vehicles() + i)]);
      }
      for (int i = 0; i < ref.num_vehicles(); ++i) {
        bw.high_level_obs_into(e, i, hl_b.data());
        ref.high_level_obs_into(i, hl_r.data());
        for (std::size_t k = 0; k < hl_b.size(); ++k) {
          ASSERT_EQ(hl_b[k], hl_r[k])
              << "round " << round << " env " << e << " vehicle " << i;
        }
        bw.low_level_obs_into(e, i, 1, ll_b.data());
        ref.low_level_obs_into(i, 1, ll_r.data());
        for (std::size_t k = 0; k < ll_b.size(); ++k) {
          ASSERT_EQ(ll_b[k], ll_r[k])
              << "round " << round << " env " << e << " vehicle " << i;
        }
      }
    }
  }
}

// ------------------------------------------------------ scenario loader ---

std::string write_scenario(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << body;
  return path;
}

TEST(ScenarioLoader, GeneratorLaysOutMixedTraffic) {
  const std::string path = write_scenario("gen.json", R"({
    "track": {"circumference": 12.0, "lane_width": 0.35, "num_lanes": 3},
    "max_steps": 40,
    "traffic": {"num_vehicles": 12, "plodder_every": 4,
                "start_speed": 0.1, "plodder_speed": 0.04,
                "start_x_jitter": 0.05}
  })");
  const Scenario sc = load_scenario(path);
  ASSERT_EQ(sc.config.specs.size(), 12u);
  EXPECT_EQ(sc.config.track.num_lanes, 3);
  EXPECT_EQ(sc.config.max_steps, 40);
  for (int i = 0; i < 12; ++i) {
    const VehicleSpec& sp = sc.config.specs[static_cast<std::size_t>(i)];
    EXPECT_EQ(sp.start_lane, i % 3) << "vehicle " << i;
    EXPECT_EQ(sp.scripted, i % 4 == 3) << "vehicle " << i;
    EXPECT_DOUBLE_EQ(sp.start_x_jitter, 0.05);
  }
  // 4 vehicles per lane on a 12 m ring: spacing 3 m, lane-staggered by 1 m.
  EXPECT_DOUBLE_EQ(sc.config.specs[0].start_x, 0.0);
  EXPECT_DOUBLE_EQ(sc.config.specs[1].start_x, 1.0);
  EXPECT_DOUBLE_EQ(sc.config.specs[2].start_x, 2.0);
  EXPECT_DOUBLE_EQ(sc.config.specs[3].start_x, 3.0);
  EXPECT_EQ(sc.merger_index, 0);
  EXPECT_FALSE(sc.config.specs[0].scripted);
}

TEST(ScenarioLoader, VehicleOverrideSweepsDensity) {
  const std::string path = write_scenario("gen_override.json", R"({
    "track": {"circumference": 48.0, "num_lanes": 3},
    "traffic": {"num_vehicles": 128, "plodder_every": 4}
  })");
  EXPECT_EQ(load_scenario(path).config.specs.size(), 128u);
  EXPECT_EQ(load_scenario(path, 64).config.specs.size(), 64u);
  EXPECT_EQ(load_scenario(path, 256).config.specs.size(), 256u);
}

TEST(ScenarioLoader, ExplicitVehicleList) {
  const std::string path = write_scenario("explicit.json", R"({
    "merger_index": 1, "merger_target_lane": 0,
    "vehicles": [
      {"lane": 0, "x": 2.5, "scripted": true, "scripted_speed": 0.03},
      {"lane": 1, "x": 1.0, "x_jitter": 0.2, "speed": 0.12}
    ]
  })");
  const Scenario sc = load_scenario(path);
  ASSERT_EQ(sc.config.specs.size(), 2u);
  EXPECT_TRUE(sc.config.specs[0].scripted);
  EXPECT_DOUBLE_EQ(sc.config.specs[0].scripted_speed, 0.03);
  EXPECT_EQ(sc.config.specs[1].start_lane, 1);
  EXPECT_DOUBLE_EQ(sc.config.specs[1].start_x_jitter, 0.2);
  EXPECT_DOUBLE_EQ(sc.config.specs[1].start_speed, 0.12);
  EXPECT_EQ(sc.merger_index, 1);
  EXPECT_EQ(sc.merger_target_lane, 0);
}

TEST(ScenarioLoader, CheckedInDenseScenarioLoadsAndRuns) {
  const Scenario sc =
      load_scenario(HERO_SCENARIO_DIR "/dense_traffic.json", 64);
  EXPECT_EQ(sc.config.specs.size(), 64u);
  EXPECT_EQ(sc.config.track.num_lanes, 3);
  EXPECT_FALSE(sc.config.specs[static_cast<std::size_t>(sc.merger_index)]
                   .scripted);
  // The generated layout must actually reset and step.
  LaneWorld world(sc.config);
  Rng rng(3);
  world.reset(rng);
  std::vector<TwistCmd> cmds(static_cast<std::size_t>(world.num_learners()),
                             TwistCmd{0.1, 0.0});
  auto out = world.step(cmds, rng);
  EXPECT_EQ(out.reward.size(), static_cast<std::size_t>(world.num_learners()));
}

TEST(ScenarioLoader, RejectsInvalidConfigs) {
  EXPECT_THROW(load_scenario("/nonexistent/scenario.json"), std::runtime_error);
  EXPECT_THROW(load_scenario(write_scenario("bad.json", "{not json")),
               std::runtime_error);
  EXPECT_THROW(load_scenario(write_scenario("neither.json", R"({"dt": 0.5})")),
               std::runtime_error);
  EXPECT_THROW(load_scenario(write_scenario("both.json", R"({
    "vehicles": [{"lane": 0}], "traffic": {"num_vehicles": 2}
  })")),
               std::runtime_error);
  // Override only makes sense with a generator block.
  EXPECT_THROW(load_scenario(write_scenario("explicit2.json", R"({
    "vehicles": [{"lane": 0}]
  })"),
                             32),
               std::runtime_error);
  // 64 vehicles on an 8 m two-lane ring cannot hold a 0.3 m vehicle.
  EXPECT_THROW(load_scenario(write_scenario("packed.json", R"({
    "traffic": {"num_vehicles": 64}
  })")),
               std::runtime_error);
  // plodder_every = 1 scripts every vehicle: no learners left.
  EXPECT_THROW(load_scenario(write_scenario("nolearner.json", R"({
    "traffic": {"num_vehicles": 4, "plodder_every": 1}
  })")),
               std::runtime_error);
  // merger_index naming a scripted vehicle.
  EXPECT_THROW(load_scenario(write_scenario("scriptedmerger.json", R"({
    "merger_index": 0,
    "vehicles": [{"lane": 0, "scripted": true}, {"lane": 1}]
  })")),
               std::runtime_error);
  EXPECT_THROW(load_scenario(write_scenario("badlane.json", R"({
    "merger_target_lane": 5,
    "traffic": {"num_vehicles": 4}
  })")),
               std::runtime_error);
  EXPECT_THROW(load_scenario(write_scenario("offtrack.json", R"({
    "vehicles": [{"lane": 7}]
  })")),
               std::runtime_error);
  // Integer fields reject fractional, out-of-range and non-finite numbers
  // with an error naming the key, instead of truncating or overflowing.
  const auto expect_rejects_int = [](const std::string& name,
                                     const std::string& body,
                                     const std::string& key) {
    try {
      load_scenario(write_scenario(name, body));
      ADD_FAILURE() << name << ": loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key + " must be an integer"),
                std::string::npos)
          << name << ": " << e.what();
    }
  };
  expect_rejects_int("fraclanes.json", R"({
    "track": {"num_lanes": 2.5}, "traffic": {"num_vehicles": 4}
  })",
                     "track.num_lanes");
  expect_rejects_int("fraclane.json", R"({"vehicles": [{"lane": 0.5}]})",
                     "vehicles[].lane");
  expect_rejects_int("fracmerger.json", R"({
    "merger_index": 0.9, "traffic": {"num_vehicles": 4}
  })",
                     "merger_index");
  expect_rejects_int("hugesteps.json", R"({
    "max_steps": 1e10, "traffic": {"num_vehicles": 4}
  })",
                     "max_steps");
  expect_rejects_int("infsteps.json", R"({
    "max_steps": -1e999, "traffic": {"num_vehicles": 4}
  })",
                     "max_steps");
  expect_rejects_int("fracvehicles.json", R"({"traffic": {"num_vehicles": 4.5}})",
                     "traffic.num_vehicles");
  expect_rejects_int("fracplodder.json", R"({
    "traffic": {"num_vehicles": 4, "plodder_every": 1.5}
  })",
                     "traffic.plodder_every");
  expect_rejects_int("fractarget.json", R"({
    "merger_target_lane": 0.5, "traffic": {"num_vehicles": 4}
  })",
                     "merger_target_lane");
}

}  // namespace
}  // namespace hero::sim
