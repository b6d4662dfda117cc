// The one episode loop: HERO's stage-2 training, every baseline trainer's
// collection and both evaluation entry points (rl::evaluate,
// rl::evaluate_batch) run their episodes here (docs/BATCHING.md, "One
// episode loop").
//
// Each tick the runner makes one Controller::act_rows_into call over every
// live lane of a sim::BatchLaneWorld, advances them together with
// BatchLaneWorld::step_all and extracts their post-step rows into an
// ObsBatch slot (ObsBatch::set_slot_from_world, sensor noise from the
// lane's stream). One extraction per tick serves both the next tick's
// action and, for the step hook, a transition's next_obs. Lanes finish
// independently; a round ends when every lane has, and its episodes are
// then reported in lane order, which is episode order.
//
// Phases: a round runs inside OBS_PHASE("rollout"), which closes before its
// episodes are reported; every extraction runs inside OBS_PHASE("obs_build")
// (one scope per tick plus one for the reset rows). The controller and the
// step hook open their own scopes under `rollout` (HERO: act_rows,
// accumulate); the report hook runs outside it (HERO: learn).
//
// The caller picks one of two keyings:
//   * run_episodes(loop, world, Rng& rng, ..): one episode at a time on env
//     0. Every draw comes from `rng`: the reset and the first rows' sensor
//     noise, then per tick the controller's draws, the step's noise, the
//     sensor noise and then whatever the step hook draws (a trainer's
//     update).
//   * run_episodes(loop, world, std::uint64_t root, ..): rounds of
//     world.num_envs() lanes; lane i of the round that starts at episode f
//     draws everything from stream_rng(root, f + i), seeded inside the
//     round's scope. HERO's stage 2, batched baseline training and
//     rl::evaluate_batch key this way.
#pragma once

#include <cstdint>
#include <functional>

#include "rl/controller.h"
#include "rl/evaluation.h"
#include "sim/batch_lane_world.h"

namespace hero::rl {

// One tick as the step hook sees it. Slot s stepped this tick iff
// before.slot(s).active; then before.slot(s).reset marks the episode's
// first tick, its learners' commands are cmds[s·n .. s·n + n), its outcome
// is result.reward[s·n + k], result.collision[s] and result.done[s], and
// after's slot s holds its post-step rows (the terminal rows when done).
// Slots that did not step are stale in `after`.
struct StepView {
  const ObsBatch& before;
  const ObsBatch& after;
  const sim::TwistCmd* cmds;
  const sim::BatchStepResult& result;
};

struct EpisodeLoop {
  Controller* controller = nullptr;
  bool explore = false;
  // Success: the merger vehicle ends the episode in this lane, collision-free.
  int merger_index = 0;
  int merger_target_lane = 0;
  // Optional: runs after every step_all and extraction.
  std::function<void(const StepView&)> on_step;
  // Optional: runs at each round's end for its episodes, in episode order.
  std::function<void(int episode, std::size_t lane, const EpisodeStats&)> on_episode;
};

// Runs `episodes` episodes one at a time on env 0 of `world`, drawing
// everything from `rng`.
void run_episodes(const EpisodeLoop& loop, sim::BatchLaneWorld& world, Rng& rng,
                  int episodes);

// Runs `episodes` episodes in rounds of world.num_envs() lanes keyed by
// stream_rng(root, episode).
void run_episodes(const EpisodeLoop& loop, sim::BatchLaneWorld& world,
                  std::uint64_t root, int episodes);

}  // namespace hero::rl
