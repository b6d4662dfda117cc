#include "obs/telemetry.h"

#include "obs/metrics.h"
#include "obs/phase.h"

namespace hero::obs {

TelemetryEvent::TelemetryEvent(const char* event) {
  line_.reserve(256);
  line_ += "{\"event\": \"";
  json_escape_into(event, line_);
  line_ += "\", \"t_s\": ";
  line_ += json_number(now_us() * 1e-6);
}

void TelemetryEvent::key_into(const char* key) {
  line_ += ", \"";
  json_escape_into(key, line_);
  line_ += "\": ";
}

TelemetryEvent& TelemetryEvent::field(const char* key, double v) {
  key_into(key);
  line_ += json_number(v);
  return *this;
}

TelemetryEvent& TelemetryEvent::field(const char* key, long long v) {
  key_into(key);
  line_ += std::to_string(v);
  return *this;
}

TelemetryEvent& TelemetryEvent::field(const char* key, bool v) {
  key_into(key);
  line_ += v ? "true" : "false";
  return *this;
}

TelemetryEvent& TelemetryEvent::field(const char* key, const char* v) {
  key_into(key);
  line_ += '"';
  json_escape_into(v, line_);
  line_ += '"';
  return *this;
}

TelemetryEvent& TelemetryEvent::field(const char* key, const std::string& v) {
  return field(key, v.c_str());
}

Telemetry& Telemetry::instance() {
  static Telemetry t;
  return t;
}

bool Telemetry::open(const std::string& path) {
  MutexLock lock(mu_);
  out_.open(path, std::ios::trunc);
  const bool ok = static_cast<bool>(out_);
  enabled_.store(ok, std::memory_order_relaxed);
  return ok;
}

void Telemetry::close() {
  MutexLock lock(mu_);
  enabled_.store(false, std::memory_order_relaxed);
  if (out_.is_open()) out_.close();
}

void Telemetry::emit(const TelemetryEvent& e) {
  MutexLock lock(mu_);
  if (!out_.is_open()) return;
  out_ << e.line_ << ", \"seq\": " << seq_++ << "}\n";
  if (!out_) {
    write_errors_.fetch_add(1, std::memory_order_relaxed);
    out_.clear();  // keep trying — later writes may succeed (e.g. disk freed)
    return;
  }
  lines_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace hero::obs
