// Umbrella header and CLI wiring for the observability layer.
//
// Tool binaries opt the subsystems in with
//
//   hero::Flags flags(argc, argv);
//   auto outputs = obs::configure(flags);   // --metrics-out/--trace-out/
//                                           // --telemetry-out/--metrics-every
//   auto manifest = obs::default_manifest("hero_train");
//   manifest.seed = seed; ...               // stamp run parameters
//   obs::set_run_manifest(manifest);        // emits "run_start" telemetry
//   ... run ...                             // trainers call note_episode()
//   obs::finalize(outputs);                 // snapshot + run_end + verdict
//
// Each subsystem stays fully disabled (near-zero instrumentation cost)
// unless its flag was given. --metrics-out additionally enables phase-time
// attribution (obs/phase.h) and the run-health verdict (obs/alerts.h); the
// metrics snapshot is the composed document
//
//   {"manifest": ..., "counters": ..., "gauges": ..., "histograms": ...,
//    "phases": ..., "health": ...}
//
// written atomically (tmp + rename) so live readers such as
// tools/hero_monitor never observe torn JSON. With --metrics-every N the
// same document is rewritten every N finished episodes while the run is
// still going.
#pragma once

#include <cstdint>
#include <string>

#include "common/flags.h"
#include "obs/alerts.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace hero::obs {

struct Outputs {
  std::string metrics_path;    // JSON metrics snapshot
  std::string trace_path;      // Chrome trace_event JSON
  std::string telemetry_path;  // JSONL event stream
  int metrics_every = 0;       // episodes between rolling snapshots (0 = off)
};

// Identifies the run that produced an artifact: stamped into the metrics
// snapshot ("manifest") and the telemetry stream ("run_start" event) so any
// file on disk can be traced back to a (binary, commit, seed, topology).
struct RunManifest {
  std::string tool;           // producing binary, e.g. "hero_train"
  std::string git_sha;        // configure-time HEAD (stale if not re-cmaked)
  std::string build_type;     // CMAKE_BUILD_TYPE
  std::string build_flags;    // CMAKE_CXX_FLAGS
  std::string hostname;
  std::string config_digest;  // config_digest() over the canonical flag string
  long long seed = 0;
  int num_workers = 1;
  int batch_envs = 0;
};

// Reads --metrics-out, --trace-out, --telemetry-out and --metrics-every from
// `flags` and enables the matching subsystems. --metrics-every without
// --metrics-out is a usage error: logs and exits with status 2. Call before
// flags.check_unknown().
Outputs configure(Flags& flags);

// Manifest skeleton with the build-determined fields filled in (git sha,
// build type/flags, hostname). The caller sets seed/topology/digest and then
// installs it with set_run_manifest().
RunManifest default_manifest(const char* tool);

// FNV-1a 64-bit digest of a canonical "key=value ..." flag string, as 16 hex
// chars. Same flags => same digest, so runs are groupable by configuration.
std::string config_digest(const std::string& canonical);

// Installs the manifest and, when telemetry is open, emits a "run_start"
// event carrying it.
void set_run_manifest(const RunManifest& m);
const RunManifest& run_manifest();
std::string manifest_json();

// The composed snapshot document (see file comment for the schema).
std::string snapshot_json();

// Writes snapshot_json() via write-to-tmp + rename: a concurrent reader
// sees either the previous complete document or the new one, never a torn
// mix. Returns false on I/O failure.
bool write_snapshot_atomic(const std::string& path);

// Programmatic form of --metrics-every (used by configure and tests):
// every `every`-th note_episode() call rewrites `path`. every<=0 disables.
void set_rolling_snapshot(const std::string& path, int every);

// Episode tick: trainers call once per finished episode. Cheap no-op unless
// metrics and a rolling path are configured.
void note_episode();
std::uint64_t rolling_snapshots_written();

// Run-health feeding is keyed off either sink being active.
inline bool health_enabled() { return metrics_enabled() || telemetry_enabled(); }

// Writes the final snapshot and trace (if requested), emits a "run_end"
// telemetry event with the health verdict, logs the verdict, and closes the
// telemetry stream. Safe to call with empty paths.
void finalize(const Outputs& out);

}  // namespace hero::obs
