// Multi-threaded stress tests for the parallel runtime — driven under
// -fsanitize=thread in CI alongside test_obs_stress (docs/CORRECTNESS.md).
// Like those, they double as correctness tests: all counts must balance
// after the threads join.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/rng.h"
#include "runtime/rng_stream.h"
#include "runtime/thread_pool.h"

namespace {

using hero::runtime::ThreadPool;

TEST(RuntimeStress, ThreadPoolParallelForHammer) {
  // Many short rounds back-to-back: exercises the latch handoff between the
  // submitting thread and pool workers (the barrier every training round
  // crosses twice).
  ThreadPool pool(8);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(64, [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), 200L * 64);
}

TEST(RuntimeStress, StreamRngThreadLocalDraws) {
  // Counter-based streams are constructed concurrently from raw (seed, id)
  // pairs — no shared state, so concurrent construction must be race-free
  // and reproduce the single-threaded sequences exactly.
  constexpr int kStreams = 16;
  std::vector<std::uint64_t> serial(kStreams), threaded(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    serial[static_cast<std::size_t>(s)] =
        hero::runtime::stream_rng(11, static_cast<std::uint64_t>(s)).engine()();
  }
  ThreadPool pool(8);
  pool.parallel_for(kStreams, [&](std::size_t s) {
    threaded[s] = hero::runtime::stream_rng(11, s).engine()();
  });
  EXPECT_EQ(serial, threaded);
}

}  // namespace
