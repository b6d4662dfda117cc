// Process-wide metrics registry: counters, gauges and fixed-bucket
// histograms with percentile estimation, exported as a JSON snapshot.
//
// Design goals (docs/OBSERVABILITY.md):
//   * near-zero cost when disabled — every mutating call first does one
//     relaxed atomic-bool load and bails;
//   * lock-cheap when enabled — counters/gauges are single relaxed atomic
//     ops, histogram observes touch one atomic bucket plus a few scalars;
//     the registry mutex is only taken on first registration and snapshot;
//   * handles are pointer-stable — cache the reference from counter() /
//     gauge() / histogram() in hot paths (a function-local static works).
//
// Metrics are process-global so instrumentation deep in the stack (nn, sim)
// and the exporting tool binary see the same registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"

namespace hero::obs {

namespace detail {
// The on/off switches of the three obs sinks, one bit each in one word: the
// metrics registry (here), the phase tree (obs/phase.h) and the Chrome trace
// (obs/trace.h). One word makes a scope's "is any sink on?" test a single
// relaxed load, and set_sink's fetch_or/fetch_and never loses a concurrent
// setter's bit.
enum : unsigned { kMetricsSink = 1u, kPhaseSink = 2u, kTraceSink = 4u };
extern std::atomic<unsigned> g_sinks;
inline unsigned sinks() { return g_sinks.load(std::memory_order_relaxed); }
void set_sink(unsigned bit, bool on);
}  // namespace detail

inline bool metrics_enabled() { return detail::sinks() & detail::kMetricsSink; }
inline void set_metrics_enabled(bool on) {
  detail::set_sink(detail::kMetricsSink, on);
}

// Monotonically increasing event count.
class Counter {
 public:
  void inc(long long delta = 1) {
    if (metrics_enabled()) v_.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> v_{0};
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) {
    if (metrics_enabled()) v_.store(v, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Bucket layout chosen at registration time. Log-scale suits latencies
// (microseconds across 12 decades by default); linear suits bounded
// quantities like losses. Values below `lo` land in the first bucket and
// values above `hi` in an overflow bucket, so percentiles saturate at the
// configured range rather than losing samples.
struct HistogramOptions {
  double lo = 1e-3;
  double hi = 1e9;
  std::size_t buckets = 48;
  bool log_scale = true;
};

class Histogram {
 public:
  explicit Histogram(const HistogramOptions& opt);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double x);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  // NaN samples are not representable in any bucket; they are dropped but
  // counted here and exported in the JSON snapshot, so a poisoned metric is
  // visible instead of silently shrinking.
  std::uint64_t dropped_nan() const {
    return dropped_nan_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty

  // Linear interpolation inside the bucket containing rank p/100·count;
  // accuracy is bounded by the bucket width. p in [0, 100].
  double percentile(double p) const;

  void reset();

  const HistogramOptions& options() const { return opt_; }
  // Upper edge of each regular bucket (the overflow bucket has no edge).
  const std::vector<double>& upper_edges() const { return upper_; }
  std::vector<std::uint64_t> bucket_counts() const;  // size buckets + 1

 private:
  double lower_edge(std::size_t bucket) const;

  HistogramOptions opt_;
  std::vector<double> upper_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // buckets + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> dropped_nan_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

class Registry {
 public:
  static Registry& instance();

  // Find-or-create by name. References stay valid for the process lifetime
  // (metrics are never erased). Histogram options apply only on the call
  // that first registers the name.
  Counter& counter(const std::string& name) HERO_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) HERO_EXCLUDES(mu_);
  Histogram& histogram(const std::string& name, const HistogramOptions& opt = {})
      HERO_EXCLUDES(mu_);

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  //  mean, min, max, p50, p90, p95, p99}}}
  std::string snapshot_json() const HERO_EXCLUDES(mu_);
  bool write_json(const std::string& path) const HERO_EXCLUDES(mu_);

  std::size_t size() const HERO_EXCLUDES(mu_);  // number of registered metrics
  void reset_values() HERO_EXCLUDES(mu_);       // zero everything, keep registrations

 private:
  Registry() = default;

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ HERO_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ HERO_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      HERO_GUARDED_BY(mu_);
};

// Appends a JSON-escaped copy of `s` to `out` (shared by the trace and
// telemetry writers).
void json_escape_into(const std::string& s, std::string& out);
// Formats a double as JSON ("null" for NaN/inf, which JSON cannot carry).
std::string json_number(double v);

}  // namespace hero::obs
