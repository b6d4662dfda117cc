// Verifies the zero-allocation contract of the sim sensing hot path: after a
// warmup pass establishes buffer capacity (spatial index, staged boxes,
// lidar scratch), repeated *_obs_into calls — through the LaneWorld view and
// the batch world — and the batch world's step_all must not touch the heap
// (docs/PERFORMANCE.md).
//
// Global operator new/delete are replaced with counting versions; this file
// is its own test binary so the replacement cannot leak into other suites
// (same idiom as test_nn_alloc.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "sim/lane_world.h"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace hero::sim {
namespace {

long allocations_during(const std::function<void()>& fn) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

LaneWorldConfig alloc_test_config(int vehicles) {
  LaneWorldConfig cfg;
  cfg.track = {8.0, 0.35, 2};
  cfg.dt = 0.5;
  cfg.max_steps = 1000;  // keep episodes open for the whole measurement
  cfg.lidar.noise_stddev = 0.02;  // noise draws must be alloc-free too
  for (int i = 0; i < vehicles; ++i) {
    VehicleSpec s;
    s.start_lane = i % 2;
    s.start_x = 0.9 * i;
    s.start_speed = 0.1;
    s.scripted = i == vehicles - 1;
    cfg.specs.push_back(s);
  }
  return cfg;
}

void serial_obs_pass(const LaneWorld& world, std::vector<double>& hl,
                     std::vector<double>& ll, Rng& noise) {
  for (int i = 0; i < world.num_vehicles(); ++i) {
    world.high_level_obs_into(i, hl.data(), &noise);
    for (int lane = 0; lane < world.track().num_lanes(); ++lane) {
      world.low_level_obs_into(i, lane, ll.data(), &noise);
    }
  }
}

TEST(SimAllocationCount, SerialObsSteadyStateIsAllocFree) {
  LaneWorld world(alloc_test_config(8));
  Rng rng(1), noise(2);
  world.reset(rng);
  std::vector<double> hl(world.high_level_obs_dim());
  std::vector<double> ll(world.low_level_obs_dim());

  // Warmup: size the index storage and lidar scratch.
  for (int i = 0; i < 2; ++i) serial_obs_pass(world, hl, ll, noise);

  const long n = allocations_during([&] {
    for (int iter = 0; iter < 10; ++iter) {
      // Move a vehicle so every iteration re-sorts the index — the rebuild
      // itself must be allocation-free, not just the cached reads.
      const int i = iter % world.num_vehicles();
      VehicleState st = world.state(i);
      st.x = world.track().wrap_x(0.37 * static_cast<double>(iter));
      world.set_state(i, st);
      serial_obs_pass(world, hl, ll, noise);
    }
  });
  EXPECT_EQ(n, 0) << n << " heap allocations in 10 steady-state obs passes";
}

TEST(SimAllocationCount, BatchStepAndObsSteadyStateIsAllocFree) {
  const int kEnvs = 4;
  BatchLaneWorld world(alloc_test_config(6), kEnvs);
  const int n_learners = world.num_learners();
  std::vector<Rng> rngs;
  std::vector<Rng*> rng_ptrs;
  for (int e = 0; e < kEnvs; ++e) rngs.emplace_back(10 + static_cast<unsigned>(e));
  for (int e = 0; e < kEnvs; ++e) rng_ptrs.push_back(&rngs[static_cast<std::size_t>(e)]);
  for (int e = 0; e < kEnvs; ++e) world.reset_env(e, rngs[static_cast<std::size_t>(e)]);

  // Identical gentle commands: no collisions, episodes stay open.
  std::vector<TwistCmd> cmds(static_cast<std::size_t>(kEnvs * n_learners),
                             TwistCmd{0.05, 0.0});
  std::vector<std::uint8_t> active(static_cast<std::size_t>(kEnvs), 1);
  BatchStepResult bout;
  std::vector<double> hl(world.high_level_obs_dim());
  std::vector<double> ll(world.low_level_obs_dim());

  auto pass = [&] {
    world.step_all(cmds.data(), rng_ptrs.data(), active.data(), bout);
    for (int e = 0; e < kEnvs; ++e) {
      for (int i = 0; i < world.num_vehicles(); ++i) {
        world.high_level_obs_into(e, i, hl.data());
        world.low_level_obs_into(e, i, world.lane(e, i), ll.data());
      }
    }
  };
  for (int i = 0; i < 2; ++i) pass();  // warmup sizes bout and all scratch

  const long n = allocations_during([&] {
    for (int iter = 0; iter < 10; ++iter) pass();
  });
  EXPECT_EQ(n, 0) << n
                  << " heap allocations in 10 steady-state step+obs rounds";
}

}  // namespace
}  // namespace hero::sim
