// Unit tests for the runtime layer: thread pool scheduling and the
// counter-based RNG streams the determinism contract rests on
// (docs/PARALLELISM.md).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "runtime/rng_stream.h"
#include "runtime/thread_pool.h"

namespace {

using hero::Rng;
using hero::runtime::ThreadPool;

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForSlotsPartitionIsStatic) {
  ThreadPool pool(3);
  std::vector<int> slot_of(100, -1);
  hero::Mutex mu;
  pool.parallel_for_slots(slot_of.size(), [&](std::size_t i, std::size_t slot) {
    hero::MutexLock lock(mu);
    slot_of[i] = static_cast<int>(slot);
  });
  for (std::size_t i = 0; i < slot_of.size(); ++i) {
    EXPECT_EQ(slot_of[i], static_cast<int>(i % 3)) << "index " << i;
  }
}

TEST(ThreadPool, SubmitDrainsBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&] { ran.fetch_add(1); });
    }
  }  // destructor joins after draining the queue
  EXPECT_EQ(ran.load(), 64);
}

TEST(RngStream, StreamsAreStableAndDistinct) {
  // Same (seed, stream) → identical sequence; different stream or seed →
  // different sequence. This is the property the determinism contract
  // rests on: an episode's draws depend only on its index.
  Rng a = hero::runtime::stream_rng(42, 7);
  Rng b = hero::runtime::stream_rng(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.engine()(), b.engine()());

  std::set<std::uint64_t> first_draws;
  for (std::uint64_t s = 0; s < 64; ++s) {
    first_draws.insert(hero::runtime::stream_rng(42, s).engine()());
  }
  EXPECT_EQ(first_draws.size(), 64u);
  EXPECT_NE(hero::runtime::stream_seed(1, 0), hero::runtime::stream_seed(2, 0));
}

}  // namespace
