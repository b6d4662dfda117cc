#include "algos/common.h"

#include <algorithm>
#include <string>

#include "obs/obs.h"

namespace hero::algos {

void record_episode(const char* method, int episode, const rl::EpisodeStats& stats) {
  if (obs::metrics_enabled()) {
    auto& reg = obs::Registry::instance();
    const std::string prefix(method);
    reg.counter(prefix + ".episodes").inc();
    reg.counter(prefix + ".steps").inc(stats.steps);
    if (stats.collision) reg.counter(prefix + ".collisions").inc();
    if (stats.success) reg.counter(prefix + ".successes").inc();
    reg.histogram(prefix + ".episode_reward",
                  {/*lo=*/-100.0, /*hi=*/100.0, /*buckets=*/64,
                   /*log_scale=*/false})
        .observe(stats.team_reward);
  }
  if (obs::telemetry_enabled()) {
    obs::Telemetry::instance().emit(obs::TelemetryEvent("baseline/episode")
                                        .field("method", method)
                                        .field("episode", episode)
                                        .field("reward", stats.team_reward)
                                        .field("steps", stats.steps)
                                        .field("collision", stats.collision)
                                        .field("success", stats.success)
                                        .field("mean_speed", stats.mean_speed));
  }
  if (obs::health_enabled()) {
    // Baselines report reward/steps only; rules needing update or throughput
    // fields stay dormant, but episodes still count toward the verdict and
    // the rolling-snapshot cadence.
    obs::EpisodeHealth h;
    h.episode = episode;
    h.reward = stats.team_reward;
    h.steps = stats.steps;
    obs::AlertEngine::instance().observe_episode(h);
    obs::note_episode();
  }
}

std::size_t baseline_obs_dim(const sim::LaneWorld& world) {
  return world.high_level_obs_dim() + world.low_level_obs_dim();
}

namespace {

void copy_baseline_row(const rl::ObsBatch& batch, std::size_t s, int agent,
                       double* row) {
  const double* hsrc = batch.hl_row(s, agent);
  std::copy(hsrc, hsrc + batch.hl_dim(), row);
  const double* lsrc = batch.ll_row(s, agent, batch.scalars(s, agent).lane);
  std::copy(lsrc, lsrc + batch.ll_dim(), row + batch.hl_dim());
}

}  // namespace

void active_slots(const rl::ObsBatch& batch, std::vector<std::size_t>& slots) {
  slots.clear();
  for (std::size_t s = 0; s < batch.count(); ++s) {
    if (batch.slot(s).active) slots.push_back(s);
  }
}

void gather_baseline_rows(const rl::ObsBatch& batch, int agent,
                          const std::vector<std::size_t>& slots, nn::Matrix& out) {
  out.resize(slots.size(), batch.hl_dim() + batch.ll_dim());
  for (std::size_t r = 0; r < slots.size(); ++r) {
    copy_baseline_row(batch, slots[r], agent, out.row_ptr(r));
  }
}

std::vector<double> baseline_row(const rl::ObsBatch& batch, std::size_t slot,
                                 int agent) {
  std::vector<double> row(batch.hl_dim() + batch.ll_dim());
  copy_baseline_row(batch, slot, agent, row.data());
  return row;
}

rl::EpisodeLoop training_loop(rl::Controller& trainer, const sim::Scenario& scenario,
                              const char* method, const EpisodeHook& hook) {
  rl::EpisodeLoop loop;
  loop.controller = &trainer;
  loop.explore = true;
  loop.merger_index = scenario.merger_index;
  loop.merger_target_lane = scenario.merger_target_lane;
  loop.on_episode = [method, hook](int ep, std::size_t, const rl::EpisodeStats& s) {
    record_episode(method, ep, s);
    if (hook) hook(ep, s);
  };
  return loop;
}

void run_training(const rl::EpisodeLoop& loop, sim::LaneWorld& world, int batch_envs,
                  int episodes, Rng& rng) {
  if (batch_envs <= 0) {
    rl::run_episodes(loop, world.batch_world(), rng, episodes);
    return;
  }
  const std::uint64_t root = rng.engine()();
  sim::BatchLaneWorld lanes(world.config(), batch_envs);
  rl::run_episodes(loop, lanes, root, episodes);
}

std::vector<double> primitive_lo() { return {0.04, -0.25}; }
std::vector<double> primitive_hi() { return {0.20, 0.25}; }

}  // namespace hero::algos
