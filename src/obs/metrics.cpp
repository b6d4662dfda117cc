#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace hero::obs {

namespace detail {
std::atomic<unsigned> g_sinks{0};

void set_sink(unsigned bit, bool on) {
  if (on) {
    g_sinks.fetch_or(bit, std::memory_order_relaxed);
  } else {
    g_sinks.fetch_and(~bit, std::memory_order_relaxed);
  }
}
}  // namespace detail

namespace {

void atomic_fetch_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_fetch_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_add_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

// ------------------------------------------------------------ Histogram ---

Histogram::Histogram(const HistogramOptions& opt)
    : opt_(opt),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (opt_.buckets == 0) opt_.buckets = 1;
  if (opt_.log_scale && opt_.lo <= 0.0) opt_.lo = 1e-9;
  if (opt_.hi <= opt_.lo) opt_.hi = opt_.lo + 1.0;
  upper_.resize(opt_.buckets);
  const double n = static_cast<double>(opt_.buckets);
  for (std::size_t i = 0; i < opt_.buckets; ++i) {
    const double f = static_cast<double>(i + 1) / n;
    upper_[i] = opt_.log_scale
                    ? opt_.lo * std::pow(opt_.hi / opt_.lo, f)
                    : opt_.lo + (opt_.hi - opt_.lo) * f;
  }
  upper_.back() = opt_.hi;  // kill pow() rounding on the last edge
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(opt_.buckets + 1);
  for (std::size_t i = 0; i <= opt_.buckets; ++i) counts_[i].store(0);
}

double Histogram::lower_edge(std::size_t bucket) const {
  return bucket == 0 ? opt_.lo : upper_[bucket - 1];
}

void Histogram::observe(double x) {
  if (!metrics_enabled()) return;
  if (std::isnan(x)) {
    dropped_nan_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::size_t b;
  if (x > opt_.hi) {
    b = opt_.buckets;  // overflow
  } else {
    b = static_cast<std::size_t>(
        std::upper_bound(upper_.begin(), upper_.end(), x) - upper_.begin());
    if (b >= opt_.buckets) b = opt_.buckets - 1;  // x == hi lands inside
  }
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, x);
  atomic_fetch_min(min_, x);
  atomic_fetch_max(max_, x);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::min() const {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0.0 : v;
}

double Histogram::max() const {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0.0 : v;
}

double Histogram::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(n);
  double cum = 0.0;
  for (std::size_t b = 0; b <= opt_.buckets; ++b) {
    const double c = static_cast<double>(counts_[b].load(std::memory_order_relaxed));
    if (c == 0.0) continue;
    if (cum + c >= rank) {
      if (b == opt_.buckets) return std::min(max(), opt_.hi);  // overflow: saturate
      const double frac = std::clamp((rank - cum) / c, 0.0, 1.0);
      const double lo = std::max(lower_edge(b), min());
      const double hi = std::min(upper_[b], max());
      return lo + (hi - lo) * frac;
    }
    cum += c;
  }
  return max();
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= opt_.buckets; ++i) counts_[i].store(0);
  count_.store(0);
  dropped_nan_.store(0);
  sum_.store(0.0);
  min_.store(std::numeric_limits<double>::infinity());
  max_.store(-std::numeric_limits<double>::infinity());
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(opt_.buckets + 1);
  for (std::size_t i = 0; i <= opt_.buckets; ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

// ------------------------------------------------------------- Registry ---

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Counter& Registry::counter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, const HistogramOptions& opt) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(opt);
  return *slot;
}

std::size_t Registry::size() const {
  MutexLock lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void Registry::reset_values() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string Registry::snapshot_json() const {
  MutexLock lock(mu_);
  std::string out;
  out.reserve(4096);
  out += "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape_into(name, out);
    out += "\": " + std::to_string(c->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape_into(name, out);
    out += "\": " + json_number(g->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape_into(name, out);
    out += "\": {\"count\": " + std::to_string(h->count());
    out += ", \"sum\": " + json_number(h->sum());
    out += ", \"mean\": " + json_number(h->mean());
    out += ", \"min\": " + json_number(h->min());
    out += ", \"max\": " + json_number(h->max());
    out += ", \"p50\": " + json_number(h->percentile(50));
    out += ", \"p90\": " + json_number(h->percentile(90));
    out += ", \"p95\": " + json_number(h->percentile(95));
    out += ", \"p99\": " + json_number(h->percentile(99));
    out += ", \"dropped_nan\": " + std::to_string(h->dropped_nan());
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

bool Registry::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << snapshot_json();
  return static_cast<bool>(f);
}

// ----------------------------------------------------------- JSON utils ---

void json_escape_into(const std::string& s, std::string& out) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_number(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace hero::obs
