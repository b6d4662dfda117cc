// Multi-threaded stress tests over the observability layer — the
// -fsanitize=thread CI job drives these to surface data races in the
// metrics registry, OBS_PHASE scopes and telemetry stream
// (docs/CORRECTNESS.md).
// They are also ordinary correctness tests: all counts must balance after
// the threads join.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace {

using hero::obs::Registry;

constexpr int kThreads = 8;
constexpr int kItersPerThread = 2000;

class ObsStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hero::obs::set_metrics_enabled(true);
    Registry::instance().reset_values();
  }
  void TearDown() override {
    hero::obs::set_metrics_enabled(false);
    hero::obs::set_trace_enabled(false);
    Registry::instance().reset_values();
  }
};

TEST_F(ObsStressTest, ConcurrentRegistrationAndMutation) {
  // Every thread find-or-creates the same metric names while mutating them:
  // registration (map insert under mutex) races against hot-path increments
  // on already-registered handles.
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      auto& reg = Registry::instance();
      for (int i = 0; i < kItersPerThread; ++i) {
        reg.counter("stress.shared_counter").inc();
        reg.counter("stress.counter." + std::to_string(i % 7)).inc();
        reg.gauge("stress.gauge").set(static_cast<double>(t));
        reg.histogram("stress.histogram").observe(static_cast<double>(i % 100));
        if (i % 5 == 0) {
          reg.histogram("stress.histogram").observe(std::nan(""));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  auto& reg = Registry::instance();
  EXPECT_EQ(reg.counter("stress.shared_counter").value(),
            static_cast<long long>(kThreads) * kItersPerThread);
  long long mod_total = 0;
  for (int i = 0; i < 7; ++i) {
    mod_total += reg.counter("stress.counter." + std::to_string(i)).value();
  }
  EXPECT_EQ(mod_total, static_cast<long long>(kThreads) * kItersPerThread);
  auto& h = reg.histogram("stress.histogram");
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kItersPerThread);
  EXPECT_EQ(h.dropped_nan(),
            static_cast<std::uint64_t>(kThreads) * (kItersPerThread / 5));
}

TEST_F(ObsStressTest, SnapshotWhileMutating) {
  // One thread repeatedly renders the JSON snapshot while others mutate and
  // register: the snapshot must never observe a torn registry.
  std::atomic<bool> stop{false};
  std::thread snapshotter([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string json = Registry::instance().snapshot_json();
      ASSERT_FALSE(json.empty());
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      auto& reg = Registry::instance();
      for (int i = 0; i < kItersPerThread; ++i) {
        reg.counter("snap.counter." + std::to_string((t * 31 + i) % 13)).inc();
        reg.histogram("snap.hist." + std::to_string(i % 3))
            .observe(static_cast<double>(i));
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();
}

TEST_F(ObsStressTest, ConcurrentSpansAndTraceExport) {
  hero::obs::set_trace_enabled(true);
  hero::obs::TraceRecorder::instance().clear();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kItersPerThread / 10; ++i) {
        OBS_PHASE("outer");
        {
          OBS_PHASE("inner");
        }
      }
    });
  }
  // Concurrent snapshot + size polling while spans are recorded.
  std::atomic<bool> stop{false};
  std::thread reader([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)hero::obs::TraceRecorder::instance().size();
      (void)hero::obs::TraceRecorder::instance().snapshot();
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const auto events = hero::obs::TraceRecorder::instance().snapshot();
  const std::size_t expected =
      static_cast<std::size_t>(kThreads) * (kItersPerThread / 10) * 2;
  EXPECT_EQ(events.size() + hero::obs::TraceRecorder::instance().dropped(), expected);
  hero::obs::TraceRecorder::instance().clear();
}

TEST_F(ObsStressTest, ConcurrentTelemetryEmission) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "hero_obs_stress_telemetry.jsonl";
  auto& tel = hero::obs::Telemetry::instance();
  ASSERT_TRUE(tel.open(path.string()));
  const std::uint64_t base = tel.lines_written();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kItersPerThread / 4; ++i) {
        hero::obs::Telemetry::instance().emit(
            hero::obs::TelemetryEvent("stress/event")
                .field("thread", t)
                .field("i", i)
                .field("value", static_cast<double>(i) * 0.5));
      }
    });
  }
  for (auto& th : threads) th.join();
  tel.close();

  const std::uint64_t expected =
      static_cast<std::uint64_t>(kThreads) * (kItersPerThread / 4);
  EXPECT_EQ(tel.lines_written() - base, expected);

  // Every line must be a complete, un-torn JSON object.
  std::ifstream in(path);
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"event\": \"stress/event\""), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, expected);
  fs::remove(path);
}

TEST_F(ObsStressTest, EnableDisableToggleUnderLoad) {
  // Toggling the global enable flag while other threads mutate: exercises the
  // relaxed-load fast path against concurrent stores.
  std::atomic<bool> stop{false};
  std::thread toggler([&stop] {
    bool on = true;
    while (!stop.load(std::memory_order_relaxed)) {
      hero::obs::set_metrics_enabled(on);
      on = !on;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      auto& c = Registry::instance().counter("toggle.counter");
      auto& h = Registry::instance().histogram("toggle.hist");
      for (int i = 0; i < kItersPerThread; ++i) {
        c.inc();
        h.observe(static_cast<double>(i));
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  toggler.join();
  hero::obs::set_metrics_enabled(true);
  // No exact count possible (the toggle drops some); the invariant is no
  // crash/race and a value within the possible range.
  EXPECT_LE(Registry::instance().counter("toggle.counter").value(),
            static_cast<long long>(kThreads) * kItersPerThread);
}

}  // namespace
