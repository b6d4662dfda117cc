#include "obs/trace.h"

#include <fstream>

namespace hero::obs {

std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder r;
  return r;
}

void TraceRecorder::record_complete(const std::string& name, double ts_us,
                                    double dur_us) {
  const std::uint32_t tid = current_tid();
  MutexLock lock(mu_);
  if (events_.size() >= cap_) {
    ++dropped_;
    return;
  }
  events_.push_back({name, ts_us, dur_us, tid});
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  MutexLock lock(mu_);
  return events_;
}

std::size_t TraceRecorder::size() const {
  MutexLock lock(mu_);
  return events_.size();
}

std::uint64_t TraceRecorder::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

void TraceRecorder::set_capacity(std::size_t cap) {
  MutexLock lock(mu_);
  cap_ = cap;
}

void TraceRecorder::clear() {
  MutexLock lock(mu_);
  events_.clear();
  dropped_ = 0;
}

bool TraceRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  MutexLock lock(mu_);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    std::string name;
    json_escape_into(e.name, name);
    f << "  {\"name\": \"" << name << "\", \"cat\": \"hero\", \"ph\": \"X\""
      << ", \"ts\": " << json_number(e.ts_us)
      << ", \"dur\": " << json_number(e.dur_us)
      << ", \"pid\": 1, \"tid\": " << e.tid << "}"
      << (i + 1 == events_.size() ? "" : ",") << "\n";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace hero::obs
