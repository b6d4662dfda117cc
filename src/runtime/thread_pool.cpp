#include "runtime/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/check.h"
#include "obs/phase.h"
#include "obs/metrics.h"

namespace hero::runtime {

namespace {

// Completion latch shared between the submitting thread and the pool tasks
// of one parallel_for call. Owned by shared_ptr so stray wakeups after the
// caller returns cannot touch a dead object. `remaining` is atomic (not
// guarded) — count_down only takes the mutex to pair the final notify with
// a waiter that checked between load and sleep.
struct Latch {
  explicit Latch(std::size_t total) : remaining(total) {}
  std::atomic<std::size_t> remaining;
  Mutex mu;
  CondVar cv;

  void count_down(std::size_t n) HERO_EXCLUDES(mu) {
    if (remaining.fetch_sub(n, std::memory_order_acq_rel) == n) {
      MutexLock lock(mu);
      cv.notify_all();
    }
  }
  void wait() HERO_EXCLUDES(mu) {
    MutexLock lock(mu);
    cv.wait(mu, [&] { return remaining.load(std::memory_order_acquire) == 0; });
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = num_threads == 0 ? 1 : num_threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (obs::metrics_enabled()) {
    obs::Registry::instance().gauge("runtime.pool.threads").set(static_cast<double>(n));
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      OBS_PHASE("pool_idle");  // time this worker spent parked waiting for work
      MutexLock lock(mu_);
      // Hand-rolled predicate loop (not the CondVar predicate overload): the
      // predicate reads mu_-guarded state, which the analysis can only see
      // in a plain loop body, not through a lambda.
      while (!stop_ && queue_.empty()) cv_.wait(mu_);
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  HERO_CHECK(task != nullptr);
  std::size_t depth;
  {
    MutexLock lock(mu_);
    HERO_CHECK_MSG(!stop_, "submit() on a stopped ThreadPool");
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  cv_.notify_one();
  if (obs::metrics_enabled()) {
    auto& reg = obs::Registry::instance();
    reg.counter("runtime.pool.tasks").inc();
    // Linear buckets: queue depth is a small bounded integer in practice.
    reg.histogram("runtime.pool.queue_depth",
                  {/*lo=*/0.0, /*hi=*/256.0, /*buckets=*/64, /*log_scale=*/false})
        .observe(static_cast<double>(depth));
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || size() == 1) {
    // Nothing to overlap — run inline and skip the dispatch round-trip.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto latch = std::make_shared<Latch>(n);
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  const std::size_t tasks = std::min(n, size());
  // Copied into each task: a task can start after the last index ran and
  // this call returned.
  const std::vector<const char*> path = obs::current_phase_path();
  for (std::size_t t = 0; t < tasks; ++t) {
    submit([latch, next, n, &fn, path] {
      const obs::AdoptPhasePath adopt(path);
      for (;;) {
        const std::size_t i = next->fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        fn(i);
        latch->count_down(1);
      }
    });
  }
  latch->wait();
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

}  // namespace hero::runtime
