// The one scoped timer of the obs layer. OBS_PHASE opens a scope for the
// rest of the enclosing block and feeds every sink that is switched on:
//
//   void HeroTrainer::train(...) {
//     OBS_PHASE("stage2");
//     ...
//     { OBS_PHASE("learn"); merge_and_update(...); }
//   }
//
// * the phase tree (set_phases_enabled; --metrics-out and perfbench): each
//   distinct nesting path keeps one entry count and one total-duration
//   cell, so a million entries cost O(paths) memory. It answers "which share
//   of stage2 went to learn, and of that to nn_forward?" and is exported in
//   the metrics snapshot under "phases";
// * the Chrome trace (set_trace_enabled; --trace-out): one 'X' event per
//   scope exit, obs/trace.h;
// * the metrics registry (set_metrics_enabled; --metrics-out): one sample
//   of the microsecond latency histogram "span.<path>" per scope exit.
//
// A scope's path is the '/'-joined names from its thread's root to it
// ("stage2/learn/update/critic"), built once when its tree node is created,
// so trace and histogram names follow the real nesting.
//
// Threading model: every thread owns a private tree (registered with the
// global PhaseRegistry on first use and kept alive for the process
// lifetime). A scope's node is found/created under the owner thread's tree
// mutex only on first sighting of that (parent, name) edge; afterwards
// entering a scope is one child lookup by pointer identity and a clock read.
// PhaseRegistry::snapshot() merges all per-thread trees by name, so phases
// recorded on pool workers (docs/PARALLELISM.md) fold into one tree —
// worker-side phases appear as top-level entries of the merged tree because
// each worker's stack starts at its own root.
//
// With every sink off (the default), constructing a scope is one relaxed
// load of the sink word (obs/metrics.h): no clock read, no allocation, no
// lock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "obs/metrics.h"

namespace hero::obs {

namespace detail {

// The one clock of the obs layer: every scope and now_us() read it.
inline std::uint64_t clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct PhaseNode {
  const char* name = nullptr;  // string literal from the OBS_PHASE site
  std::string path;            // '/'-joined names from the thread's root
  PhaseNode* parent = nullptr;
  // "span.<path>", looked up on the first exit with metrics on. Owner
  // thread only, like `current`.
  Histogram* histogram = nullptr;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  // Guarded by the *owning tree's* mu — not expressible as HERO_GUARDED_BY
  // because the node has no back-pointer to its tree, so the thread-safety
  // analysis cannot check accesses and the invariant lives here instead:
  // only the owner thread appends (under the tree mutex, so snapshot
  // readers on other threads are safe), and the owner's deliberately
  // lock-free lookups in phase_enter cannot race its own appends.
  std::vector<std::unique_ptr<PhaseNode>> children;
};

struct PhaseThreadTree {
  PhaseNode root;           // unnamed sentinel; top-level phases hang off it
  PhaseNode* current = &root;  // owner-thread-only: its position in the tree
  Mutex mu;                 // guards children mutation vs snapshot readers
};

// Enters phase `name` under the calling thread's current node and returns
// the node; phase_exit() feeds the sinks in `sinks` and pops the stack.
PhaseNode* phase_enter(const char* name);
void phase_exit(PhaseNode* node, unsigned sinks, std::uint64_t start_ns,
                std::uint64_t end_ns);
}  // namespace detail

inline void set_phases_enabled(bool on) {
  detail::set_sink(detail::kPhaseSink, on);
}

// Microseconds on the scopes' clock since process start.
double now_us();

// One node of the merged (cross-thread) phase tree.
struct PhaseStat {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;
  std::vector<PhaseStat> children;  // sorted by name
};

class PhaseRegistry {
 public:
  static PhaseRegistry& instance();

  // Merged view of every thread's tree, children sorted by name. Phases
  // recorded on different threads under the same path fold together.
  std::vector<PhaseStat> snapshot() const HERO_EXCLUDES(mu_);

  // {"stage2": {"count": 1, "total_us": 123.4, "children": {...}}, ...}
  std::string json() const HERO_EXCLUDES(mu_);

  // Zeroes all counters and totals; keeps registered structure. In-flight
  // scopes still accumulate into their (now zeroed) nodes on exit.
  void reset() HERO_EXCLUDES(mu_);

  // Internal: called once per thread on first OBS_PHASE entry.
  void register_tree(std::shared_ptr<detail::PhaseThreadTree> tree)
      HERO_EXCLUDES(mu_);

 private:
  PhaseRegistry() = default;

  mutable Mutex mu_;
  std::vector<std::shared_ptr<detail::PhaseThreadTree>> trees_
      HERO_GUARDED_BY(mu_);
};

class ScopedPhase {
 public:
  explicit ScopedPhase(const char* name) : sinks_(detail::sinks()) {
    if (sinks_) {
      node_ = detail::phase_enter(name);
      start_ns_ = detail::clock_ns();
    }
  }
  ~ScopedPhase() {
    if (sinks_) detail::phase_exit(node_, sinks_, start_ns_, detail::clock_ns());
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  unsigned sinks_;  // the sinks on at entry; this scope feeds exactly those
  detail::PhaseNode* node_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

}  // namespace hero::obs

#define HERO_OBS_CONCAT2(a, b) a##b
#define HERO_OBS_CONCAT(a, b) HERO_OBS_CONCAT2(a, b)
#define OBS_PHASE(name) \
  ::hero::obs::ScopedPhase HERO_OBS_CONCAT(hero_obs_phase_, __COUNTER__)(name)
