#include "rl/evaluation.h"

#include <algorithm>

#include "obs/obs.h"
#include "rl/episode_runner.h"

namespace hero::rl {

namespace {

// The greedy loop both entry points run: every finished episode is summed
// into `summary` and reported as an eval/episode telemetry line, in
// episode order.
EpisodeLoop eval_loop(Controller& controller, int merger_index,
                      int merger_target_lane, EvalSummary& summary) {
  EpisodeLoop loop;
  loop.controller = &controller;
  loop.merger_index = merger_index;
  loop.merger_target_lane = merger_target_lane;
  loop.on_episode = [&summary](int episode, std::size_t, const EpisodeStats& ep) {
    summary.mean_reward += ep.team_reward;
    summary.collision_rate += ep.collision ? 1.0 : 0.0;
    summary.success_rate += ep.success ? 1.0 : 0.0;
    summary.mean_speed += ep.mean_speed;
    if (obs::telemetry_enabled()) {
      obs::Telemetry::instance().emit(obs::TelemetryEvent("eval/episode")
                                          .field("episode", episode)
                                          .field("reward", ep.team_reward)
                                          .field("steps", ep.steps)
                                          .field("collision", ep.collision)
                                          .field("success", ep.success)
                                          .field("mean_speed", ep.mean_speed));
    }
    obs::note_episode();
  };
  return loop;
}

EvalSummary averaged(EvalSummary s, int episodes) {
  s.episodes = episodes;
  if (episodes > 0) {
    s.mean_reward /= episodes;
    s.collision_rate /= episodes;
    s.success_rate /= episodes;
    s.mean_speed /= episodes;
  }
  return s;
}

}  // namespace

EvalSummary evaluate(sim::LaneWorld& world, Controller& controller, Rng& rng,
                     int episodes, int merger_index, int merger_target_lane) {
  EvalSummary sum;
  run_episodes(eval_loop(controller, merger_index, merger_target_lane, sum),
               world.batch_world(), rng, episodes);
  return averaged(sum, episodes);
}

EvalSummary evaluate_batch(const sim::LaneWorldConfig& world_cfg,
                           Controller& controller, std::uint64_t root_seed,
                           int episodes, int batch, int merger_index,
                           int merger_target_lane) {
  EvalSummary sum;
  if (episodes > 0) {
    sim::BatchLaneWorld world(world_cfg, std::clamp(batch, 1, episodes));
    run_episodes(eval_loop(controller, merger_index, merger_target_lane, sum),
                 world, root_seed, episodes);
  }
  return averaged(sum, episodes);
}

}  // namespace hero::rl
