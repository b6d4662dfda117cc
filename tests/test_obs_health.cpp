// Unit tests for the run-health layer (obs/phase.h, obs/alerts.h,
// obs/json.h, and the composed snapshot in obs/obs.h): phase-tree nesting
// and cross-thread merging, rolling-snapshot atomicity under concurrent
// readers, alert-rule firing (including injected NaN gradients firing
// exactly one alert), and manifest round-trips through the JSON reader.
//
// The obs subsystems are process-global; each test that enables one
// restores the disabled default and resets accumulated state on exit.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/alerts.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/phase.h"

namespace hero::obs {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

const PhaseStat* find_stat(const std::vector<PhaseStat>& stats,
                           const std::string& name) {
  for (const auto& s : stats) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

struct PhaseGuard {
  PhaseGuard() {
    PhaseRegistry::instance().reset();
    set_phases_enabled(true);
  }
  ~PhaseGuard() {
    set_phases_enabled(false);
    PhaseRegistry::instance().reset();
  }
};

// ---------------------------------------------------------- phase tree ----

TEST(PhaseTimer, NestedScopesBuildATree) {
  PhaseGuard guard;
  {
    OBS_PHASE("pt_root");
    {
      OBS_PHASE("pt_child_a");
    }
    {
      OBS_PHASE("pt_child_a");
    }
    {
      OBS_PHASE("pt_child_b");
    }
  }
  const auto stats = PhaseRegistry::instance().snapshot();
  const PhaseStat* root = find_stat(stats, "pt_root");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->count, 1u);
  const PhaseStat* a = find_stat(root->children, "pt_child_a");
  const PhaseStat* b = find_stat(root->children, "pt_child_b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->count, 2u);
  EXPECT_EQ(b->count, 1u);
  // The enclosing scope's time covers its children's.
  EXPECT_GE(root->total_us, a->total_us + b->total_us);
}

TEST(PhaseTimer, DisabledScopesRecordNothing) {
  PhaseRegistry::instance().reset();
  set_phases_enabled(false);
  {
    OBS_PHASE("pt_disabled");
  }
  const auto stats = PhaseRegistry::instance().snapshot();
  EXPECT_EQ(find_stat(stats, "pt_disabled"), nullptr);
}

TEST(PhaseTimer, SameNamePhasesMergeAcrossThreads) {
  PhaseGuard guard;
  auto work = [] {
    OBS_PHASE("pt_xthread");
    {
      OBS_PHASE("pt_xthread_inner");
    }
  };
  std::thread t1(work), t2(work);
  t1.join();
  t2.join();
  work();  // and once on this thread

  const auto stats = PhaseRegistry::instance().snapshot();
  const PhaseStat* root = find_stat(stats, "pt_xthread");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->count, 3u);
  const PhaseStat* inner = find_stat(root->children, "pt_xthread_inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 3u);
}

TEST(PhaseTimer, JsonExportParsesAndCarriesCounts) {
  PhaseGuard guard;
  {
    OBS_PHASE("pt_json_root");
    {
      OBS_PHASE("pt_json_leaf");
    }
  }
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(JsonValue::parse(PhaseRegistry::instance().json(), doc, &err)) << err;
  const JsonValue* root = doc.find("pt_json_root");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->get_number("count", -1), 1.0);
  const JsonValue* children = root->find("children");
  ASSERT_NE(children, nullptr);
  const JsonValue* leaf = children->find("pt_json_leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->get_number("count", -1), 1.0);
}

// --------------------------------------------------------- alert rules ----

AlertConfig tight_config() {
  AlertConfig cfg;
  cfg.cooldown_episodes = 4;
  cfg.grad_window = 8;
  cfg.grad_min_samples = 4;
  cfg.throughput_window = 4;
  cfg.throughput_min_episodes = 5;
  cfg.replay_starvation_episodes = 5;
  cfg.opp_window = 8;
  cfg.opp_min_episodes = 4;
  cfg.thrash_consecutive = 3;
  return cfg;
}

EpisodeHealth healthy_episode(long long ep) {
  EpisodeHealth h;
  h.episode = ep;
  h.reward = 1.0;
  h.steps = 50;
  h.have_updates = true;
  h.updated_this_episode = true;
  h.critic_loss = 0.5;
  h.critic_grad_norm = 1.0;
  h.actor_grad_norm = 1.0;
  h.have_replay = true;
  return h;
}

struct AlertGuard {
  explicit AlertGuard(const AlertConfig& cfg) { AlertEngine::instance().reset(cfg); }
  ~AlertGuard() { AlertEngine::instance().reset(); }
};

TEST(AlertEngine, HealthyRunStaysHealthy) {
  AlertGuard guard(tight_config());
  auto& eng = AlertEngine::instance();
  for (long long ep = 0; ep < 20; ++ep) eng.observe_episode(healthy_episode(ep));
  EXPECT_TRUE(eng.healthy());
  EXPECT_TRUE(eng.alerts().empty());

  JsonValue doc;
  ASSERT_TRUE(JsonValue::parse(eng.health_json(), doc, nullptr));
  EXPECT_EQ(doc.get_string("verdict", ""), "healthy");
  EXPECT_EQ(doc.get_number("episodes", -1), 20.0);
}

TEST(AlertEngine, InjectedNanGradientFiresExactlyOneAlert) {
  AlertGuard guard(tight_config());
  auto& eng = AlertEngine::instance();
  long long ep = 0;
  for (; ep < 6; ++ep) eng.observe_episode(healthy_episode(ep));

  auto sick = healthy_episode(ep++);
  sick.critic_grad_norm = std::numeric_limits<double>::quiet_NaN();
  eng.observe_episode(sick);
  ASSERT_EQ(eng.alerts().size(), 1u);
  EXPECT_EQ(eng.alerts()[0].rule, "non_finite_grad");
  EXPECT_FALSE(eng.healthy());

  // Cooldown: the immediately following sick episodes must not re-fire.
  for (int i = 0; i < 3; ++i) {
    auto again = healthy_episode(ep++);
    again.actor_grad_norm = std::numeric_limits<double>::infinity();
    eng.observe_episode(again);
  }
  EXPECT_EQ(eng.alerts().size(), 1u);

  // After the cooldown expires the rule may fire again.
  for (int i = 0; i < 4; ++i) eng.observe_episode(healthy_episode(ep++));
  auto later = healthy_episode(ep++);
  later.critic_grad_norm = std::numeric_limits<double>::quiet_NaN();
  eng.observe_episode(later);
  EXPECT_EQ(eng.alerts().size(), 2u);
}

TEST(AlertEngine, NanLossFires) {
  AlertGuard guard(tight_config());
  auto& eng = AlertEngine::instance();
  for (long long ep = 0; ep < 4; ++ep) eng.observe_episode(healthy_episode(ep));
  auto sick = healthy_episode(4);
  sick.critic_loss = std::numeric_limits<double>::quiet_NaN();
  eng.observe_episode(sick);
  ASSERT_EQ(eng.alerts().size(), 1u);
  EXPECT_EQ(eng.alerts()[0].rule, "nan_loss");
}

TEST(AlertEngine, ExplodingGradComparesToTrailingMean) {
  AlertGuard guard(tight_config());
  auto& eng = AlertEngine::instance();
  long long ep = 0;
  for (; ep < 6; ++ep) eng.observe_episode(healthy_episode(ep));
  auto sick = healthy_episode(ep++);
  sick.critic_grad_norm = 100.0;  // 100x the trailing mean of 1.0 (factor 50)
  eng.observe_episode(sick);
  ASSERT_EQ(eng.alerts().size(), 1u);
  EXPECT_EQ(eng.alerts()[0].rule, "exploding_grad");
  EXPECT_FALSE(eng.alerts()[0].wallclock);
}

TEST(AlertEngine, ThroughputCollapseIsWallclockFlagged) {
  AlertGuard guard(tight_config());
  auto& eng = AlertEngine::instance();
  long long ep = 0;
  for (; ep < 6; ++ep) {
    auto h = healthy_episode(ep);
    h.steps_per_sec = 1000.0;
    eng.observe_episode(h);
  }
  auto slow = healthy_episode(ep++);
  slow.steps_per_sec = 10.0;  // < 0.25 x trailing mean of 1000
  eng.observe_episode(slow);
  ASSERT_EQ(eng.alerts().size(), 1u);
  EXPECT_EQ(eng.alerts()[0].rule, "throughput_collapse");
  EXPECT_TRUE(eng.alerts()[0].wallclock);
}

TEST(AlertEngine, ReplayStarvationNeedsAReplayPathAndNoUpdates) {
  AlertGuard guard(tight_config());
  auto& eng = AlertEngine::instance();
  for (long long ep = 0; ep < 6; ++ep) {
    EpisodeHealth h;
    h.episode = ep;
    h.reward = 1.0;
    h.steps = 50;
    h.have_replay = true;  // learner exists but never updated
    eng.observe_episode(h);
  }
  ASSERT_EQ(eng.alerts().size(), 1u);
  EXPECT_EQ(eng.alerts()[0].rule, "replay_starvation");
}

TEST(AlertEngine, BaselineEpisodesWithoutUpdateFieldsStayQuiet) {
  // Baseline trainers report only reward/steps (algos::record_episode);
  // update- and replay-keyed rules must stay dormant on those samples.
  AlertGuard guard(tight_config());
  auto& eng = AlertEngine::instance();
  for (long long ep = 0; ep < 40; ++ep) {
    EpisodeHealth h;
    h.episode = ep;
    h.reward = -2.0;
    h.steps = 30;
    eng.observe_episode(h);
  }
  EXPECT_TRUE(eng.healthy()) << eng.health_json();
}

TEST(AlertEngine, OpponentAccuracyCollapseFires) {
  AlertGuard guard(tight_config());
  auto& eng = AlertEngine::instance();
  long long ep = 0;
  for (; ep < 6; ++ep) {
    auto h = healthy_episode(ep);
    h.opponent_predictions = 100;
    h.opponent_accuracy = 0.8;
    eng.observe_episode(h);
  }
  auto sick = healthy_episode(ep++);
  sick.opponent_predictions = 100;
  sick.opponent_accuracy = 0.1;  // < 0.5 x trailing peak of 0.8
  eng.observe_episode(sick);
  ASSERT_EQ(eng.alerts().size(), 1u);
  EXPECT_EQ(eng.alerts()[0].rule, "opponent_collapse");
}

TEST(AlertEngine, OptionThrashNeedsConsecutiveEpisodes) {
  AlertGuard guard(tight_config());
  auto& eng = AlertEngine::instance();
  long long ep = 0;
  auto thrashy = [&] {
    auto h = healthy_episode(ep++);
    h.option_switch_rate = 0.9;
    return h;
  };
  eng.observe_episode(thrashy());
  eng.observe_episode(thrashy());
  EXPECT_TRUE(eng.alerts().empty());  // run of 2 < consecutive threshold 3
  auto calm = healthy_episode(ep++);
  calm.option_switch_rate = 0.1;
  eng.observe_episode(calm);  // resets the run
  eng.observe_episode(thrashy());
  eng.observe_episode(thrashy());
  EXPECT_TRUE(eng.alerts().empty());
  eng.observe_episode(thrashy());
  ASSERT_EQ(eng.alerts().size(), 1u);
  EXPECT_EQ(eng.alerts()[0].rule, "option_thrash");
}

// ------------------------------------------------- manifest round-trip ----

TEST(RunManifest, RoundTripsThroughSnapshotJson) {
  RunManifest m;
  m.tool = "test_\"tool\"";  // exercises string escaping
  m.git_sha = "abc123def456";
  m.build_type = "Release";
  m.build_flags = "-O2 -fno-math-errno";
  m.hostname = "unit-host";
  m.config_digest = config_digest("seed=7 episodes=2");
  m.seed = 1234567890123LL;
  m.num_workers = 4;
  m.batch_envs = 16;
  set_run_manifest(m);

  JsonValue doc;
  std::string err;
  ASSERT_TRUE(JsonValue::parse(manifest_json(), doc, &err)) << err;
  EXPECT_EQ(doc.get_string("tool", ""), "test_\"tool\"");
  EXPECT_EQ(doc.get_string("git_sha", ""), "abc123def456");
  EXPECT_EQ(doc.get_string("build_flags", ""), "-O2 -fno-math-errno");
  EXPECT_EQ(doc.get_string("hostname", ""), "unit-host");
  EXPECT_EQ(doc.get_string("config_digest", ""), m.config_digest);
  EXPECT_EQ(doc.get_number("seed", 0), 1234567890123.0);
  EXPECT_EQ(doc.get_number("num_workers", 0), 4.0);
  EXPECT_EQ(doc.get_number("batch_envs", 0), 16.0);

  set_run_manifest(RunManifest{});
}

TEST(RunManifest, ConfigDigestIsStableAndFlagSensitive) {
  const std::string a = config_digest("seed=1 episodes=2");
  EXPECT_EQ(a, config_digest("seed=1 episodes=2"));
  EXPECT_NE(a, config_digest("seed=2 episodes=2"));
  EXPECT_EQ(a.size(), 16u);  // 64-bit FNV-1a as hex
}

// ------------------------------------------------------------ snapshot ----

struct MetricsGuard {
  MetricsGuard() {
    set_metrics_enabled(true);
    PhaseRegistry::instance().reset();
    AlertEngine::instance().reset();
  }
  ~MetricsGuard() {
    set_metrics_enabled(false);
    set_rolling_snapshot("", 0);
    Registry::instance().reset_values();
    AlertEngine::instance().reset();
  }
};

TEST(Snapshot, ComposedDocumentParsesWithAllSections) {
  MetricsGuard guard;
  Registry::instance().counter("test.health.counter").inc(3);

  JsonValue doc;
  std::string err;
  ASSERT_TRUE(JsonValue::parse(snapshot_json(), doc, &err)) << err;
  ASSERT_NE(doc.find("manifest"), nullptr);
  ASSERT_NE(doc.find("counters"), nullptr);
  ASSERT_NE(doc.find("gauges"), nullptr);
  ASSERT_NE(doc.find("phases"), nullptr);
  ASSERT_NE(doc.find("health"), nullptr);
  EXPECT_EQ(doc.find("counters")->get_number("test.health.counter", -1), 3.0);
  // The silent-data-loss gauges ride in every snapshot.
  EXPECT_NE(doc.find("gauges")->find("obs.trace.dropped"), nullptr);
  EXPECT_NE(doc.find("gauges")->find("obs.telemetry.write_errors"), nullptr);
  EXPECT_EQ(doc.find("health")->get_string("verdict", ""), "healthy");
}

TEST(Snapshot, RollingWritesAreAtomicUnderConcurrentReaders) {
  MetricsGuard guard;
  const std::string path = temp_path("hero_test_rolling_snapshot.json");
  std::filesystem::remove(path);
  set_rolling_snapshot(path, 1);

  std::atomic<bool> stop{false};
  std::atomic<int> parsed{0};
  std::atomic<int> failed{0};
  auto reader = [&] {
    while (!stop.load()) {
      std::string text = slurp(path);
      if (text.empty()) continue;  // not created yet
      JsonValue doc;
      if (JsonValue::parse(text, doc, nullptr)) {
        ++parsed;
      } else {
        ++failed;  // a torn write would land here
      }
    }
  };
  std::thread r1(reader), r2(reader);

  const std::uint64_t before = rolling_snapshots_written();
  for (int i = 0; i < 200; ++i) {
    Registry::instance().counter("test.rolling.episodes").inc();
    note_episode();
  }
  stop.store(true);
  r1.join();
  r2.join();

  EXPECT_EQ(rolling_snapshots_written() - before, 200u);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GT(parsed.load(), 0);

  // The final document on disk is complete and carries the last tick.
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(JsonValue::parse(slurp(path), doc, &err)) << err;
  EXPECT_EQ(doc.find("counters")->get_number("test.rolling.episodes", -1), 200.0);
  std::filesystem::remove(path);
}

TEST(Snapshot, EveryNThrottlesRollingWrites) {
  MetricsGuard guard;
  const std::string path = temp_path("hero_test_rolling_every.json");
  std::filesystem::remove(path);
  set_rolling_snapshot(path, 4);
  const std::uint64_t before = rolling_snapshots_written();
  for (int i = 0; i < 10; ++i) note_episode();
  EXPECT_EQ(rolling_snapshots_written() - before, 2u);  // at ticks 4 and 8
  std::filesystem::remove(path);
}

TEST(Snapshot, WriteAtomicProducesAParseableFileAndNoTmpLeftover) {
  MetricsGuard guard;
  const std::string path = temp_path("hero_test_snapshot_once.json");
  ASSERT_TRUE(write_snapshot_atomic(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(JsonValue::parse(slurp(path), doc, &err)) << err;
  std::filesystem::remove(path);
}

// ----------------------------------------------------------- JSON reader --

TEST(JsonReader, ParsesScalarsContainersAndEscapes) {
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(JsonValue::parse(
      R"({"a": 1.5, "b": "x\"yA", "c": [1, 2, 3], "d": {"e": true}, "f": null})",
      doc, &err))
      << err;
  EXPECT_EQ(doc.get_number("a", 0), 1.5);
  EXPECT_EQ(doc.get_string("b", ""), "x\"yA");
  ASSERT_NE(doc.find("c"), nullptr);
  ASSERT_EQ(doc.find("c")->items.size(), 3u);
  EXPECT_EQ(doc.find("c")->items[2].number_or(0), 3.0);
  EXPECT_TRUE(doc.find("d")->find("e")->bool_or(false));
  EXPECT_TRUE(doc.find("f")->is_null());
}

TEST(JsonReader, RejectsMalformedAndTrailingGarbage) {
  JsonValue doc;
  EXPECT_FALSE(JsonValue::parse("{\"a\": }", doc, nullptr));
  EXPECT_FALSE(JsonValue::parse("{\"a\": 1} trailing", doc, nullptr));
  EXPECT_FALSE(JsonValue::parse("", doc, nullptr));
  EXPECT_FALSE(JsonValue::parse("[1, 2", doc, nullptr));
}

}  // namespace
}  // namespace hero::obs
