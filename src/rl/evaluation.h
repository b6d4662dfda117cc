// Evaluation harness: scores any controller on the paper's four metrics
// (Sec. V-B): mean episode reward, collision rate, lane-merge success rate,
// and mean speed.
#pragma once

#include <cstdint>

#include "rl/controller.h"
#include "sim/scenario.h"

namespace hero::rl {

struct EpisodeStats {
  double team_reward = 0.0;  // summed team reward over the episode
  bool collision = false;
  bool success = false;      // merger finished in the target lane, no collision
  double mean_speed = 0.0;   // averaged over learners
  int steps = 0;
};

struct EvalSummary {
  double mean_reward = 0.0;
  double collision_rate = 0.0;
  double success_rate = 0.0;
  double mean_speed = 0.0;
  int episodes = 0;
};

// Greedy evaluation over `episodes` fresh episodes of `world`, one at a
// time, every draw from `rng` (rl/episode_runner.h).
EvalSummary evaluate(sim::LaneWorld& world, Controller& controller, Rng& rng,
                     int episodes, int merger_index, int merger_target_lane);

// Batch-first greedy evaluation: up to `batch` episodes advance in lockstep
// as the lanes of one sim::BatchLaneWorld, so every per-step network
// evaluation of a batched controller runs once per tick instead of once
// per episode. Episode e draws all of its randomness from the
// counter-based stream stream_rng(root_seed, e) and greedy selection is
// draw-free, so the per-episode results are invariant to the batch width —
// evaluate_batch(.., batch=1, ..) and batch=16 score identical episodes,
// and evaluate() from a copy of stream_rng(root_seed, 0) scores episode 0
// identically (docs/SERVING.md, "Batched evaluation"). Both run through
// the one episode loop (rl/episode_runner.h).
EvalSummary evaluate_batch(const sim::LaneWorldConfig& world_cfg,
                           Controller& controller, std::uint64_t root_seed,
                           int episodes, int batch, int merger_index,
                           int merger_target_lane);

}  // namespace hero::rl
