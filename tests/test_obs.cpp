// Unit tests for the observability layer (src/obs): metrics registry
// semantics, histogram percentiles, OBS_PHASE scopes feeding the trace and
// the span.<path> histograms, and the JSONL telemetry stream.
//
// The obs subsystems are process-global and default-disabled; each test
// that enables one restores the disabled state on exit so the suites stay
// independent.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace hero::obs {
namespace {

// Enables metrics, tracing and/or the phase tree for one test body;
// restores the all-disabled default (and clears recorded state) on
// destruction.
struct ObsGuard {
  explicit ObsGuard(bool metrics, bool trace = false, bool phases = false) {
    set_metrics_enabled(metrics);
    set_trace_enabled(trace);
    set_phases_enabled(phases);
  }
  ~ObsGuard() {
    set_metrics_enabled(false);
    set_trace_enabled(false);
    set_phases_enabled(false);
    Registry::instance().reset_values();
    TraceRecorder::instance().clear();
    PhaseRegistry::instance().reset();
  }
};

const PhaseStat* find_stat(const std::vector<PhaseStat>& stats,
                           const std::string& name) {
  for (const auto& s : stats) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ------------------------------------------------------------ Registry ----

TEST(Metrics, DisabledCallsAreNoOps) {
  ObsGuard guard(/*metrics=*/false);
  auto& c = Registry::instance().counter("test.disabled.counter");
  auto& g = Registry::instance().gauge("test.disabled.gauge");
  auto& h = Registry::instance().histogram("test.disabled.hist");
  c.reset();
  c.inc(5);
  g.set(3.0);
  h.observe(1.0);
  EXPECT_EQ(c.value(), 0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, CounterAndGaugeBasics) {
  ObsGuard guard(/*metrics=*/true);
  auto& c = Registry::instance().counter("test.basic.counter");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);

  auto& g = Registry::instance().gauge("test.basic.gauge");
  g.set(1.5);
  g.set(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
}

TEST(Metrics, FindOrCreateReturnsSameInstance) {
  ObsGuard guard(/*metrics=*/true);
  auto& a = Registry::instance().counter("test.same.counter");
  auto& b = Registry::instance().counter("test.same.counter");
  EXPECT_EQ(&a, &b);
  a.inc(7);
  EXPECT_EQ(b.value(), 7);
}

TEST(Metrics, ConcurrentCounterIncrements) {
  ObsGuard guard(/*metrics=*/true);
  auto& c = Registry::instance().counter("test.concurrent.counter");
  c.reset();
  constexpr int kThreads = 4;
  constexpr int kIncs = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<long long>(kThreads) * kIncs);
}

TEST(Metrics, ConcurrentRegistrationIsSafe) {
  ObsGuard guard(/*metrics=*/true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 100; ++i) {
        Registry::instance()
            .counter("test.reg.race." + std::to_string(i % 10))
            .inc();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(
        Registry::instance().counter("test.reg.race." + std::to_string(i)).value(),
        40);
  }
}

// ----------------------------------------------------------- Histogram ----

TEST(Histogram, LinearPercentilesAndMoments) {
  ObsGuard guard(/*metrics=*/true);
  HistogramOptions opt;
  opt.lo = 0.0;
  opt.hi = 100.0;
  opt.buckets = 100;  // unit-width buckets: percentile error < 1
  opt.log_scale = false;
  auto& h = Registry::instance().histogram("test.hist.linear", opt);
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));

  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
  EXPECT_NEAR(h.percentile(50), 50.0, 1.5);
  EXPECT_NEAR(h.percentile(95), 95.0, 1.5);
  EXPECT_NEAR(h.percentile(99), 99.0, 1.5);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
}

TEST(Histogram, LogScaleSpansDecades) {
  ObsGuard guard(/*metrics=*/true);
  HistogramOptions opt;  // defaults: 1e-3 .. 1e9, log
  auto& h = Registry::instance().histogram("test.hist.log", opt);
  for (int i = 0; i < 100; ++i) h.observe(10.0);
  h.observe(1e6);
  EXPECT_EQ(h.count(), 101u);
  // Mass sits at 10; the p50 estimate must land in the same bucket
  // (log-bucket width is a factor of ~1.8 at 48 buckets over 12 decades).
  EXPECT_NEAR(std::log10(h.percentile(50)), 1.0, 0.3);
  EXPECT_GT(h.percentile(99.9), 1e5);
}

TEST(Histogram, OutOfRangeSaturatesNotLost) {
  ObsGuard guard(/*metrics=*/true);
  HistogramOptions opt;
  opt.lo = 1.0;
  opt.hi = 10.0;
  opt.buckets = 9;
  opt.log_scale = false;
  auto& h = Registry::instance().histogram("test.hist.overflow", opt);
  h.observe(-5.0);   // below lo → first bucket
  h.observe(1e9);    // above hi → overflow bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 10u);  // 9 regular + overflow
  EXPECT_EQ(counts.front(), 1u);
  EXPECT_EQ(counts.back(), 1u);
}

TEST(Histogram, ResetClears) {
  ObsGuard guard(/*metrics=*/true);
  auto& h = Registry::instance().histogram("test.hist.reset");
  h.observe(5.0);
  h.observe(std::nan(""));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.dropped_nan(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, NanSamplesAreCountedNotSilentlyDropped) {
  ObsGuard guard(/*metrics=*/true);
  auto& h = Registry::instance().histogram("test.hist.nan");
  h.observe(2.0);
  h.observe(std::nan(""));
  h.observe(std::nan(""));
  // NaN never lands in a bucket or perturbs the moments…
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  // …but the drops are visible, in the API and in the JSON snapshot.
  EXPECT_EQ(h.dropped_nan(), 2u);
  const std::string json = Registry::instance().snapshot_json();
  EXPECT_NE(json.find("\"dropped_nan\": 2"), std::string::npos) << json;
}

// ------------------------------------------------------------ Snapshot ----

TEST(Metrics, SnapshotJsonContainsAllSections) {
  ObsGuard guard(/*metrics=*/true);
  Registry::instance().counter("test.snap.counter").inc(3);
  Registry::instance().gauge("test.snap.gauge").set(2.5);
  auto& h = Registry::instance().histogram("test.snap.hist");
  for (int i = 0; i < 10; ++i) h.observe(100.0);

  const std::string json = Registry::instance().snapshot_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.snap.counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.snap.gauge\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 10"), std::string::npos);
}

TEST(Metrics, WriteJsonRoundTripsToFile) {
  ObsGuard guard(/*metrics=*/true);
  Registry::instance().counter("test.write.counter").inc();
  const std::string path = temp_path("hero_obs_metrics_test.json");
  ASSERT_TRUE(Registry::instance().write_json(path));
  const std::string body = slurp(path);
  EXPECT_EQ(body.front(), '{');
  EXPECT_NE(body.find("test.write.counter"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Metrics, ResetValuesKeepsRegistrations) {
  ObsGuard guard(/*metrics=*/true);
  auto& c = Registry::instance().counter("test.resetvals.counter");
  c.inc(9);
  const std::size_t before = Registry::instance().size();
  Registry::instance().reset_values();
  EXPECT_EQ(Registry::instance().size(), before);
  EXPECT_EQ(c.value(), 0);
}

// --------------------------------------------------------------- Spans ----

TEST(Spans, DisabledSpanRecordsNothing) {
  ObsGuard guard(/*metrics=*/false, /*trace=*/false);
  const std::size_t before = TraceRecorder::instance().size();
  { OBS_PHASE("disabled"); }
  EXPECT_EQ(TraceRecorder::instance().size(), before);
}

TEST(Spans, NestedSpansAreContained) {
  ObsGuard guard(/*metrics=*/false, /*trace=*/true);
  TraceRecorder::instance().clear();
  {
    OBS_PHASE("outer");
    {
      OBS_PHASE("inner");
    }
  }
  const auto events = TraceRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: inner closes (and records) first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  // Events carry the scope's nesting path.
  EXPECT_EQ(inner.name, "outer/inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1e-6);
  EXPECT_EQ(inner.tid, outer.tid);
}

TEST(Spans, FeedLatencyHistogramWhenMetricsEnabled) {
  ObsGuard guard(/*metrics=*/true, /*trace=*/false);
  { OBS_PHASE("latency"); }
  { OBS_PHASE("latency"); }
  EXPECT_EQ(Registry::instance().histogram("span.latency").count(), 2u);
}

TEST(Spans, ChromeTraceExportIsWellFormed) {
  ObsGuard guard(/*metrics=*/false, /*trace=*/true);
  TraceRecorder::instance().clear();
  {
    OBS_PHASE("export_parent");
    OBS_PHASE("export_child");
  }
  const std::string path = temp_path("hero_obs_trace_test.json");
  ASSERT_TRUE(TraceRecorder::instance().write_chrome_trace(path));
  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(body.find("\"export_parent\""), std::string::npos);
  EXPECT_NE(body.find("\"export_parent/export_child\""), std::string::npos);
  EXPECT_NE(body.find("\"pid\""), std::string::npos);
  EXPECT_NE(body.find("\"tid\""), std::string::npos);
  EXPECT_EQ(body.front(), '{');
  EXPECT_EQ(body.back(), '\n');
  std::filesystem::remove(path);
}

TEST(Spans, CapacityDropsAreCounted) {
  ObsGuard guard(/*metrics=*/false, /*trace=*/true);
  TraceRecorder::instance().clear();
  TraceRecorder::instance().set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    OBS_PHASE("capped");
  }
  EXPECT_EQ(TraceRecorder::instance().size(), 3u);
  EXPECT_EQ(TraceRecorder::instance().dropped(), 2u);
  TraceRecorder::instance().set_capacity(1u << 20);
}

TEST(Spans, OneScopeFeedsEverySink) {
  ObsGuard guard(/*metrics=*/true, /*trace=*/true, /*phases=*/true);
  {
    OBS_PHASE("outer");
    {
      OBS_PHASE("inner");
    }
  }
  auto stats = PhaseRegistry::instance().snapshot();
  const PhaseStat* outer = find_stat(stats, "outer");
  ASSERT_NE(outer, nullptr);
  const PhaseStat* inner = find_stat(outer->children, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 1u);
  auto events = TraceRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "outer/inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(Registry::instance().histogram("span.outer/inner").count(), 1u);
  EXPECT_EQ(Registry::instance().histogram("span.outer").count(), 1u);

  // Trace alone: the events still come, the phase counters stay at zero.
  set_metrics_enabled(false);
  set_phases_enabled(false);
  TraceRecorder::instance().clear();
  PhaseRegistry::instance().reset();
  Registry::instance().reset_values();
  {
    OBS_PHASE("outer");
    {
      OBS_PHASE("inner");
    }
  }
  events = TraceRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "outer/inner");
  stats = PhaseRegistry::instance().snapshot();
  outer = find_stat(stats, "outer");
  ASSERT_NE(outer, nullptr);
  inner = find_stat(outer->children, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 0u);
  EXPECT_EQ(inner->count, 0u);
  EXPECT_EQ(outer->total_us, 0.0);
  EXPECT_EQ(Registry::instance().histogram("span.outer/inner").count(), 0u);
}

// ----------------------------------------------------------- Telemetry ----

TEST(Telemetry, StreamsJsonlWithSchemaFields) {
  const std::string path = temp_path("hero_obs_telemetry_test.jsonl");
  ASSERT_TRUE(Telemetry::instance().open(path));
  EXPECT_TRUE(telemetry_enabled());

  Telemetry::instance().emit(TelemetryEvent("unit/a")
                                 .field("i", 7)
                                 .field("x", 2.5)
                                 .field("flag", true)
                                 .field("label", "merge \"fast\"\n"));
  Telemetry::instance().emit(
      TelemetryEvent("unit/b").field("nan_value", std::nan("")));
  Telemetry::instance().close();
  EXPECT_FALSE(telemetry_enabled());

  std::ifstream f(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(f, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);

  EXPECT_EQ(lines[0].find("{\"event\": \"unit/a\", \"t_s\": "), 0u);
  EXPECT_NE(lines[0].find("\"i\": 7"), std::string::npos);
  EXPECT_NE(lines[0].find("\"x\": 2.5"), std::string::npos);
  EXPECT_NE(lines[0].find("\"flag\": true"), std::string::npos);
  // Embedded quotes and newline must arrive escaped, keeping one event per line.
  EXPECT_NE(lines[0].find("\"label\": \"merge \\\"fast\\\"\\n\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"nan_value\": null"), std::string::npos);

  // Sequence numbers are appended at write time and increase monotonically.
  const auto seq_of = [](const std::string& line) {
    const auto pos = line.rfind("\"seq\": ");
    EXPECT_NE(pos, std::string::npos) << line;
    return std::stoll(line.substr(pos + 7));
  };
  EXPECT_LT(seq_of(lines[0]), seq_of(lines[1]));
  for (const auto& line : lines) EXPECT_EQ(line.back(), '}');
  std::filesystem::remove(path);
}

TEST(Telemetry, EmitWithoutSinkIsNoOp) {
  ASSERT_FALSE(telemetry_enabled());
  const auto before = Telemetry::instance().lines_written();
  Telemetry::instance().emit(TelemetryEvent("unit/dropped").field("x", 1));
  EXPECT_EQ(Telemetry::instance().lines_written(), before);
}

TEST(Telemetry, ConcurrentEmittersKeepLinesIntact) {
  const std::string path = temp_path("hero_obs_telemetry_mt_test.jsonl");
  ASSERT_TRUE(Telemetry::instance().open(path));
  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        Telemetry::instance().emit(
            TelemetryEvent("unit/mt").field("thread", t).field("i", i));
      }
    });
  }
  for (auto& t : threads) t.join();
  Telemetry::instance().close();

  std::ifstream f(path);
  int count = 0;
  long long prev_seq = -1;
  for (std::string line; std::getline(f, line); ++count) {
    ASSERT_EQ(line.find("{\"event\": \"unit/mt\""), 0u) << line;
    ASSERT_EQ(line.back(), '}') << line;
    const auto pos = line.rfind("\"seq\": ");
    ASSERT_NE(pos, std::string::npos);
    const long long seq = std::stoll(line.substr(pos + 7));
    EXPECT_GT(seq, prev_seq);
    prev_seq = seq;
  }
  EXPECT_EQ(count, kThreads * kLines);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace hero::obs
