#include "rl/evaluation.h"

#include <algorithm>
#include <memory>

#include "common/stats.h"
#include "obs/obs.h"
#include "runtime/batch_rollout.h"

namespace hero::rl {

EpisodeStats run_episode(sim::LaneWorld& world, Controller& controller, Rng& rng,
                         bool explore, int merger_index, int merger_target_lane) {
  OBS_PHASE("eval_episode");
  world.reset(rng);
  controller.begin_episode();

  EpisodeStats stats;
  while (!world.done()) {
    auto cmds = controller.act(world, rng, explore);
    auto result = world.step(cmds, rng);
    stats.team_reward += mean_of(result.reward);
    if (result.collision) stats.collision = true;
  }
  stats.steps = world.steps();
  stats.success =
      !stats.collision && world.lane(merger_index) == merger_target_lane;
  double speed = 0.0;
  for (int vi : world.learners()) speed += world.mean_speed(vi);
  stats.mean_speed = speed / static_cast<double>(world.num_learners());
  return stats;
}

EvalSummary evaluate(sim::LaneWorld& world, Controller& controller, Rng& rng,
                     int episodes, int merger_index, int merger_target_lane) {
  EvalSummary s;
  s.episodes = episodes;
  for (int e = 0; e < episodes; ++e) {
    EpisodeStats ep = run_episode(world, controller, rng, /*explore=*/false,
                                  merger_index, merger_target_lane);
    s.mean_reward += ep.team_reward;
    s.collision_rate += ep.collision ? 1.0 : 0.0;
    s.success_rate += ep.success ? 1.0 : 0.0;
    s.mean_speed += ep.mean_speed;
    if (obs::telemetry_enabled()) {
      obs::Telemetry::instance().emit(obs::TelemetryEvent("eval/episode")
                                          .field("episode", e)
                                          .field("reward", ep.team_reward)
                                          .field("steps", ep.steps)
                                          .field("collision", ep.collision)
                                          .field("success", ep.success)
                                          .field("mean_speed", ep.mean_speed));
    }
    obs::note_episode();
  }
  if (episodes > 0) {
    s.mean_reward /= episodes;
    s.collision_rate /= episodes;
    s.success_rate /= episodes;
    s.mean_speed /= episodes;
  }
  return s;
}

EvalSummary evaluate_batch(const sim::LaneWorldConfig& world_cfg,
                           Controller& controller, std::uint64_t root_seed,
                           int episodes, int batch, int merger_index,
                           int merger_target_lane) {
  OBS_PHASE("eval_batch");
  EvalSummary summary;
  summary.episodes = episodes;
  if (episodes <= 0) return summary;
  const std::size_t B =
      static_cast<std::size_t>(std::clamp(batch, 1, std::max(episodes, 1)));

  std::vector<std::unique_ptr<sim::LaneWorld>> worlds;
  for (std::size_t i = 0; i < B; ++i) {
    worlds.push_back(std::make_unique<sim::LaneWorld>(world_cfg));
  }
  const sim::LaneWorld& proto = *worlds[0];
  const int n = proto.num_learners();

  ObsBatch obs;
  obs.configure(n, proto.high_level_obs_dim(), proto.low_level_obs_dim(),
                proto.track().num_lanes());
  runtime::BatchRoundScheduler sched(B);
  std::vector<sim::TwistCmd> cmds(B * static_cast<std::size_t>(n));
  std::vector<sim::TwistCmd> slot_cmds(static_cast<std::size_t>(n));
  std::vector<EpisodeStats> stats(B);

  for (std::size_t first = 0; first < static_cast<std::size_t>(episodes);
       first += B) {
    const std::size_t count =
        std::min(B, static_cast<std::size_t>(episodes) - first);
    sched.begin_round(root_seed, first, count);
    obs.set_count(count);
    for (std::size_t i = 0; i < count; ++i) {
      worlds[i]->reset(sched.rng(i));
      stats[i] = EpisodeStats{};
      obs.set_slot_from_world(i, worlds[i]->batch_world(), 0, /*reset=*/true,
                              &sched.rng(i));
    }
    bool fresh = true;
    while (sched.live() > 0) {
      if (!fresh) {
        for (std::size_t i = 0; i < count; ++i) {
          if (!sched.active(i)) {
            obs.slot(i).active = false;
            continue;
          }
          obs.set_slot_from_world(i, worlds[i]->batch_world(), 0, /*reset=*/false,
                                  &sched.rng(i));
        }
      }
      fresh = false;
      controller.act_rows_into(obs, sched.rng_ptrs(), /*explore=*/false,
                               cmds.data());
      for (std::size_t i = 0; i < count; ++i) {
        if (!sched.active(i)) continue;
        std::copy(cmds.begin() + static_cast<long>(i * static_cast<std::size_t>(n)),
                  cmds.begin() +
                      static_cast<long>((i + 1) * static_cast<std::size_t>(n)),
                  slot_cmds.begin());
        auto result = worlds[i]->step(slot_cmds, sched.rng(i));
        stats[i].team_reward += mean_of(result.reward);
        if (result.collision) stats[i].collision = true;
        if (worlds[i]->done()) {
          stats[i].steps = worlds[i]->steps();
          stats[i].success = !stats[i].collision &&
                             worlds[i]->lane(merger_index) == merger_target_lane;
          double speed = 0.0;
          for (int vi : worlds[i]->learners()) speed += worlds[i]->mean_speed(vi);
          stats[i].mean_speed = speed / static_cast<double>(n);
          sched.finish(i);
        }
      }
    }
    // Emit in canonical episode order (lane order IS episode order).
    for (std::size_t i = 0; i < count; ++i) {
      const EpisodeStats& ep = stats[i];
      summary.mean_reward += ep.team_reward;
      summary.collision_rate += ep.collision ? 1.0 : 0.0;
      summary.success_rate += ep.success ? 1.0 : 0.0;
      summary.mean_speed += ep.mean_speed;
      if (obs::telemetry_enabled()) {
        obs::Telemetry::instance().emit(
            obs::TelemetryEvent("eval/episode")
                .field("episode", static_cast<long long>(first + i))
                .field("reward", ep.team_reward)
                .field("steps", ep.steps)
                .field("collision", ep.collision)
                .field("success", ep.success)
                .field("mean_speed", ep.mean_speed));
      }
      obs::note_episode();
    }
  }
  summary.mean_reward /= episodes;
  summary.collision_rate /= episodes;
  summary.success_rate /= episodes;
  summary.mean_speed /= episodes;
  return summary;
}

}  // namespace hero::rl
