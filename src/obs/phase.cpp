#include "obs/phase.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "obs/trace.h"

namespace hero::obs {

namespace detail {

namespace {
// Origin of now_us() and of trace timestamps. Pinned during static
// initialisation, so it precedes every scope's start.
std::uint64_t epoch_ns() {
  static const std::uint64_t t0 = clock_ns();
  return t0;
}
[[maybe_unused]] const std::uint64_t g_epoch_pinned = epoch_ns();

// Each thread holds a shared_ptr so the registry's copy keeps the tree (and
// its accumulated totals) alive after the thread exits — snapshots taken
// after pool shutdown still see worker phases.
thread_local std::shared_ptr<PhaseThreadTree> t_tree;

PhaseThreadTree& local_tree() {
  if (!t_tree) {
    t_tree = std::make_shared<PhaseThreadTree>();
    PhaseRegistry::instance().register_tree(t_tree);
  }
  return *t_tree;
}
}  // namespace

PhaseNode* phase_enter(const char* name) {
  PhaseThreadTree& tree = local_tree();
  PhaseNode* cur = tree.current;
  // Lock-free child lookup: only the owner thread ever appends children, so
  // iterating the vector here cannot race with a concurrent writer. Pointer
  // identity catches the common case (same OBS_PHASE site); strcmp catches
  // distinct literals with equal text.
  for (const auto& child : cur->children) {
    if (child->name == name || std::strcmp(child->name, name) == 0) {
      tree.current = child.get();
      return child.get();
    }
  }
  auto fresh = std::make_unique<PhaseNode>();
  fresh->name = name;
  fresh->path = cur == &tree.root ? name : cur->path + '/' + name;
  fresh->parent = cur;
  PhaseNode* node = fresh.get();
  {
    MutexLock lock(tree.mu);
    cur->children.push_back(std::move(fresh));
  }
  tree.current = node;
  return node;
}

// Runs with no lock held: the trace and histogram sinks take their own leaf
// locks (TraceRecorder::mu_, and Registry::mu_ on a node's first lookup).
void phase_exit(PhaseNode* node, unsigned sinks, std::uint64_t start_ns,
                std::uint64_t end_ns) {
  const std::uint64_t dur_ns = end_ns - start_ns;
  if (sinks & kPhaseSink) {
    node->count.fetch_add(1, std::memory_order_relaxed);
    node->total_ns.fetch_add(dur_ns, std::memory_order_relaxed);
  }
  if (sinks & kTraceSink) {
    TraceRecorder::instance().record_complete(
        node->path, static_cast<double>(start_ns - epoch_ns()) * 1e-3,
        static_cast<double>(dur_ns) * 1e-3);
  }
  if (sinks & kMetricsSink) {
    if (!node->histogram) {
      // Microsecond log buckets, 1 us .. 1000 s, 6 per decade.
      node->histogram = &Registry::instance().histogram(
          "span." + node->path, {1.0, 1e9, 54, /*log_scale=*/true});
    }
    node->histogram->observe(static_cast<double>(dur_ns) * 1e-3);
  }
  local_tree().current = node->parent;
}

}  // namespace detail

double now_us() {
  return static_cast<double>(detail::clock_ns() - detail::epoch_ns()) * 1e-3;
}

PhaseRegistry& PhaseRegistry::instance() {
  static PhaseRegistry* reg = new PhaseRegistry();  // leaked: outlive threads
  return *reg;
}

void PhaseRegistry::register_tree(std::shared_ptr<detail::PhaseThreadTree> tree) {
  MutexLock lock(mu_);
  trees_.push_back(std::move(tree));
}

namespace {

void merge_node(const detail::PhaseNode& src, std::vector<PhaseStat>& out) {
  for (const auto& child : src.children) {
    const std::uint64_t count = child->count.load(std::memory_order_relaxed);
    const std::uint64_t ns = child->total_ns.load(std::memory_order_relaxed);
    PhaseStat* stat = nullptr;
    for (auto& existing : out) {
      if (existing.name == child->name) {
        stat = &existing;
        break;
      }
    }
    if (!stat) {
      out.emplace_back();
      stat = &out.back();
      stat->name = child->name;
    }
    stat->count += count;
    stat->total_us += static_cast<double>(ns) * 1e-3;
    merge_node(*child, stat->children);
  }
}

void sort_stats(std::vector<PhaseStat>& stats) {
  std::sort(stats.begin(), stats.end(),
            [](const PhaseStat& a, const PhaseStat& b) { return a.name < b.name; });
  for (auto& s : stats) sort_stats(s.children);
}

void stats_json_into(const std::vector<PhaseStat>& stats, std::string& out) {
  out += '{';
  bool first = true;
  for (const auto& s : stats) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    json_escape_into(s.name.c_str(), out);
    out += "\": {\"count\": ";
    out += std::to_string(s.count);
    out += ", \"total_us\": ";
    out += json_number(s.total_us);
    if (!s.children.empty()) {
      out += ", \"children\": ";
      stats_json_into(s.children, out);
    }
    out += '}';
  }
  out += '}';
}

void reset_node(detail::PhaseNode& node) {
  node.count.store(0, std::memory_order_relaxed);
  node.total_ns.store(0, std::memory_order_relaxed);
  for (auto& child : node.children) reset_node(*child);
}

}  // namespace

std::vector<PhaseStat> PhaseRegistry::snapshot() const {
  MutexLock lock(mu_);
  std::vector<PhaseStat> merged;
  for (const auto& tree : trees_) {
    MutexLock tree_lock(tree->mu);
    merge_node(tree->root, merged);
  }
  sort_stats(merged);
  return merged;
}

std::string PhaseRegistry::json() const {
  const auto stats = snapshot();
  std::string out;
  out.reserve(1024);
  stats_json_into(stats, out);
  return out;
}

void PhaseRegistry::reset() {
  MutexLock lock(mu_);
  for (const auto& tree : trees_) {
    MutexLock tree_lock(tree->mu);
    reset_node(tree->root);
  }
}

}  // namespace hero::obs
