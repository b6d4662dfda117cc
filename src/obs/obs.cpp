#include "obs/obs.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/logging.h"
#include "common/sync.h"

namespace hero::obs {

namespace {

Mutex g_state_mu;
RunManifest g_manifest HERO_GUARDED_BY(g_state_mu);
std::string g_rolling_path HERO_GUARDED_BY(g_state_mu);
int g_rolling_every HERO_GUARDED_BY(g_state_mu) = 0;
// Serializes rolling-snapshot writes; sits at the TOP of the lock hierarchy
// (snapshot_json acquires the registry/phase/alert/telemetry locks below
// it — docs/CORRECTNESS.md).
Mutex g_write_mu;
std::atomic<std::uint64_t> g_episode_ticks{0};
std::atomic<std::uint64_t> g_rolling_written{0};

void append_string_member(std::string& out, const char* key,
                          const std::string& v, bool first = false) {
  if (!first) out += ", ";
  out += '"';
  out += key;
  out += "\": \"";
  json_escape_into(v, out);
  out += '"';
}

}  // namespace

Outputs configure(Flags& flags) {
  Outputs out;
  out.metrics_path = flags.get_string("metrics-out", "");
  out.trace_path = flags.get_string("trace-out", "");
  out.telemetry_path = flags.get_string("telemetry-out", "");
  out.metrics_every = flags.get_int("metrics-every", 0);
  if (out.metrics_every > 0 && out.metrics_path.empty()) {
    LOG_ERROR << "--metrics-every " << out.metrics_every
              << " requires --metrics-out PATH (rolling snapshots need a "
                 "snapshot file to rewrite)";
    std::exit(2);
  }
  if (!out.metrics_path.empty()) {
    set_metrics_enabled(true);
    set_phases_enabled(true);
    set_rolling_snapshot(out.metrics_path, out.metrics_every);
  }
  if (!out.trace_path.empty()) set_trace_enabled(true);
  if (!out.telemetry_path.empty() &&
      !Telemetry::instance().open(out.telemetry_path)) {
    LOG_ERROR << "cannot open telemetry sink " << out.telemetry_path;
  }
  return out;
}

RunManifest default_manifest(const char* tool) {
  RunManifest m;
  m.tool = tool;
#ifdef HERO_GIT_SHA
  m.git_sha = HERO_GIT_SHA;
#else
  m.git_sha = "unknown";
#endif
#ifdef HERO_BUILD_TYPE
  m.build_type = HERO_BUILD_TYPE;
#endif
#ifdef HERO_BUILD_FLAGS
  m.build_flags = HERO_BUILD_FLAGS;
#endif
  char host[256] = {0};
  if (gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    m.hostname = host;
  } else {
    m.hostname = "unknown";
  }
  return m;
}

std::string config_digest(const std::string& canonical) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV-1a prime
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return std::string(buf);
}

void set_run_manifest(const RunManifest& m) {
  {
    MutexLock lock(g_state_mu);
    g_manifest = m;
  }
  if (telemetry_enabled()) {
    Telemetry::instance().emit(TelemetryEvent("run_start")
                                   .field("tool", m.tool)
                                   .field("git_sha", m.git_sha)
                                   .field("build_type", m.build_type)
                                   .field("hostname", m.hostname)
                                   .field("config_digest", m.config_digest)
                                   .field("seed", m.seed)
                                   .field("num_workers", m.num_workers)
                                   .field("batch_envs", m.batch_envs));
  }
}

// Waiver: returns an unlocked reference — the manifest is installed once at
// startup before worker threads exist, so read-only access after that is
// benign; tests that re-install take the lock via set_run_manifest.
const RunManifest& run_manifest() HERO_NO_THREAD_SAFETY_ANALYSIS {
  return g_manifest;
}

std::string manifest_json() {
  MutexLock lock(g_state_mu);
  std::string out;
  out.reserve(256);
  out += '{';
  append_string_member(out, "tool", g_manifest.tool, /*first=*/true);
  append_string_member(out, "git_sha", g_manifest.git_sha);
  append_string_member(out, "build_type", g_manifest.build_type);
  append_string_member(out, "build_flags", g_manifest.build_flags);
  append_string_member(out, "hostname", g_manifest.hostname);
  append_string_member(out, "config_digest", g_manifest.config_digest);
  out += ", \"seed\": ";
  out += std::to_string(g_manifest.seed);
  out += ", \"num_workers\": ";
  out += std::to_string(g_manifest.num_workers);
  out += ", \"batch_envs\": ";
  out += std::to_string(g_manifest.batch_envs);
  out += '}';
  return out;
}

std::string snapshot_json() {
  // Refresh the silent-data-loss gauges so every snapshot carries them
  // (satellite: surface trace drops and telemetry write failures).
  Registry::instance().gauge("obs.trace.dropped")
      .set(static_cast<double>(TraceRecorder::instance().dropped()));
  Registry::instance().gauge("obs.telemetry.write_errors")
      .set(static_cast<double>(Telemetry::instance().write_errors()));

  std::string out;
  out.reserve(4096);
  out += "{\"manifest\": ";
  out += manifest_json();
  out += ", ";
  std::string reg = Registry::instance().snapshot_json();
  while (!reg.empty() && (reg.back() == '\n' || reg.back() == ' ')) reg.pop_back();
  if (reg.size() > 2) {  // splice the registry object's members
    out.append(reg, 1, reg.size() - 2);
    out += ", ";
  }
  out += "\"phases\": ";
  out += PhaseRegistry::instance().json();
  out += ", \"health\": ";
  out += AlertEngine::instance().health_json();
  out += '}';
  return out;
}

bool write_snapshot_atomic(const std::string& path) {
  const std::string json = snapshot_json();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f) return false;
    f << json << '\n';
    f.flush();
    if (!f) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

void set_rolling_snapshot(const std::string& path, int every) {
  MutexLock lock(g_state_mu);
  g_rolling_path = path;
  g_rolling_every = every;
  g_episode_ticks.store(0, std::memory_order_relaxed);
}

void note_episode() {
  if (!metrics_enabled()) return;
  int every;
  std::string path;
  {
    MutexLock lock(g_state_mu);
    every = g_rolling_every;
    path = g_rolling_path;
  }
  if (every <= 0 || path.empty()) return;
  const std::uint64_t n =
      g_episode_ticks.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % static_cast<std::uint64_t>(every) != 0) return;
  MutexLock lock(g_write_mu);  // one writer at a time; ticks keep counting
  if (write_snapshot_atomic(path)) {
    g_rolling_written.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t rolling_snapshots_written() {
  return g_rolling_written.load(std::memory_order_relaxed);
}

void finalize(const Outputs& out) {
  auto& engine = AlertEngine::instance();
  if (!out.telemetry_path.empty() && telemetry_enabled()) {
    const auto alerts = engine.alerts();
    Telemetry::instance().emit(
        TelemetryEvent("run_end")
            .field("verdict", engine.healthy() ? "healthy" : "sick")
            .field("episodes", engine.episodes_seen())
            .field("alerts", alerts.size()));
  }
  if (!out.metrics_path.empty()) {
    if (write_snapshot_atomic(out.metrics_path)) {
      LOG_INFO << "metrics snapshot written to " << out.metrics_path << " ("
               << Registry::instance().size() << " metrics)";
    } else {
      LOG_ERROR << "cannot write metrics snapshot " << out.metrics_path;
    }
  }
  if (!out.trace_path.empty()) {
    auto& rec = TraceRecorder::instance();
    if (rec.write_chrome_trace(out.trace_path)) {
      LOG_INFO << "trace written to " << out.trace_path << " (" << rec.size()
               << " spans" << (rec.dropped() ? ", some dropped at capacity" : "")
               << ") — open in chrome://tracing or ui.perfetto.dev";
    } else {
      LOG_ERROR << "cannot write trace " << out.trace_path;
    }
  }
  if (health_enabled() && engine.episodes_seen() > 0) {
    if (engine.healthy()) {
      LOG_INFO << "run health: healthy (" << engine.episodes_seen()
               << " episodes, 0 alerts)";
    } else {
      std::string rules;
      for (const auto& a : engine.alerts()) {
        if (!rules.empty()) rules += ", ";
        rules += a.rule;
      }
      LOG_WARN << "run health: SICK — " << engine.alerts().size()
               << " alert(s): " << rules;
    }
  }
  if (!out.telemetry_path.empty()) {
    LOG_INFO << "telemetry stream " << out.telemetry_path << " ("
             << Telemetry::instance().lines_written() << " events)";
    Telemetry::instance().close();
  }
}

}  // namespace hero::obs
