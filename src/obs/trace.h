// Chrome trace sink of the OBS_PHASE scopes (obs/phase.h): with --trace-out,
// every scope exit records one Chrome "complete" ('X') event named by the
// scope's nesting path ("stage2/learn/update/critic"), on a per-thread track,
// and the file loads in chrome://tracing or https://ui.perfetto.dev.
//
// The recorder keeps at most 2^20 events; later ones are dropped and
// counted (dropped(), exported as the obs.trace.dropped gauge), so a long
// traced run holds its first million scope exits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"
#include "obs/metrics.h"

namespace hero::obs {

inline void set_trace_enabled(bool on) { detail::set_sink(detail::kTraceSink, on); }

// Small dense per-thread id (1, 2, ...) for the trace's tid column.
std::uint32_t current_tid();

struct TraceEvent {
  std::string name;
  double ts_us = 0.0;   // scope start, obs::now_us() units
  double dur_us = 0.0;  // scope duration
  std::uint32_t tid = 0;
};

class TraceRecorder {
 public:
  static TraceRecorder& instance();

  void record_complete(const std::string& name, double ts_us, double dur_us)
      HERO_EXCLUDES(mu_);

  // Chrome trace_event "JSON object format": {"traceEvents": [...]}.
  bool write_chrome_trace(const std::string& path) const HERO_EXCLUDES(mu_);

  std::vector<TraceEvent> snapshot() const HERO_EXCLUDES(mu_);
  std::size_t size() const HERO_EXCLUDES(mu_);
  // Events discarded after hitting capacity.
  std::uint64_t dropped() const HERO_EXCLUDES(mu_);
  void set_capacity(std::size_t cap) HERO_EXCLUDES(mu_);
  void clear() HERO_EXCLUDES(mu_);

 private:
  TraceRecorder() = default;

  mutable Mutex mu_;
  std::vector<TraceEvent> events_ HERO_GUARDED_BY(mu_);
  std::size_t cap_ HERO_GUARDED_BY(mu_) = 1u << 20;
  std::uint64_t dropped_ HERO_GUARDED_BY(mu_) = 0;
};

}  // namespace hero::obs
