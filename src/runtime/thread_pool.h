// Fixed-size worker pool for the parallel training runtime.
//
// This is the only place in src/ allowed to own raw std::thread objects
// (enforced by tools/lint.py rule R5): every other subsystem expresses
// parallelism as parallel_for calls so the determinism contract in
// docs/PARALLELISM.md is auditable in one file.
//
// Scheduling model:
//   * submit()              — fire-and-forget task on the shared FIFO queue.
//   * parallel_for(n, fn)   — runs fn(i) for i in [0, n); indices are claimed
//                             dynamically (atomic counter), so work product is
//                             deterministic as long as fn(i) writes only to
//                             index-addressed state. Blocks until all done.
//
// Tasks must not throw (errors in this codebase abort via HERO_CHECK) and
// must not submit nested parallel_for calls from inside pool workers — the
// learner thread is the single orchestrator.
//
// parallel_for's tasks run inside the submitting thread's OBS_PHASE path
// (obs::AdoptPhasePath), so the scopes fn opens nest under the caller's
// scope in the merged phase tree and the trace.
//
// Instrumented via src/obs: `runtime.pool.threads` gauge,
// `runtime.pool.tasks` counter and a `runtime.pool.queue_depth` histogram
// observed at submit time (docs/OBSERVABILITY.md naming scheme).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace hero::runtime {

class ThreadPool {
 public:
  // Spawns max(1, num_threads) workers.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueues a task. Never blocks (unbounded queue).
  void submit(std::function<void()> task) HERO_EXCLUDES(mu_);

  // Dynamic-claim parallel loop; blocks until every index has run.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop() HERO_EXCLUDES(mu_);

  // workers_ is written only by the constructor (before any worker can call
  // back into the pool) and joined by the destructor — main-thread-only.
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ HERO_GUARDED_BY(mu_);
  bool stop_ HERO_GUARDED_BY(mu_) = false;
};

// CPUs in the calling thread's affinity mask, at least 1: the threads that
// can run at once for a pool this thread builds (its workers inherit the
// mask).
std::size_t affinity_cpus();

}  // namespace hero::runtime
