// Shared plumbing for the end-to-end MARL baselines (Sec. V-A of the paper):
// the common observation each baseline consumes, the shared hyper-parameter
// block (paper Table I), the per-episode training hook used by the
// learning-curve benches, and the training entry into the one episode loop.
#pragma once

#include <functional>
#include <vector>

#include "rl/episode_runner.h"
#include "rl/evaluation.h"
#include "sim/batch_lane_world.h"
#include "sim/scenario.h"

namespace hero::algos {

// Hyper-parameters shared by all trainers. Defaults follow paper Table I
// where it is specific (γ, τ, buffer, hidden width); learning rate and batch
// are tuned down for single-core wall-clock (Table I's lr 0.01 / batch 1024
// remain reachable via config).
struct TrainConfig {
  double gamma = 0.95;
  double lr = 0.002;
  double tau = 0.01;            // soft target-update rate
  std::size_t buffer_capacity = 100000;
  std::size_t batch = 128;
  std::size_t warmup_steps = 500;  // env steps before learning starts
  int update_every = 2;            // env steps between gradient updates
  double grad_clip = 10.0;
  std::vector<std::size_t> hidden = {32, 32};  // paper: hidden width 32

  // ε-greedy schedule (value-based methods). The decay horizon is sized for
  // the single-core episode budgets used in the benches (~1-2k episodes of
  // ~10-30 steps); the paper's 14k-episode runs would use a longer horizon.
  double eps_start = 1.0;
  double eps_end = 0.05;
  long eps_decay_steps = 8000;

  // Gaussian exploration noise (deterministic-policy methods).
  double act_noise = 0.1;

  // Batch-first collection (docs/BATCHING.md, "One episode loop"): 0 runs
  // one episode at a time on the trainer's own world, every draw from the
  // train() caller's rng; E > 0 rolls out rounds of E episodes in lockstep
  // through one vectorized BatchLaneWorld, lane streams keyed by one root
  // draw per train() call, with policy evaluation batched across
  // environments and the update/ε clocks counting synchronized batch
  // steps. Results are keyed to (seed, batch_envs).
  int batch_envs = 0;
};

// Per-episode callback: (episode index, training-episode stats).
using EpisodeHook = std::function<void(int, const rl::EpisodeStats&)>;

// Emits the per-episode observability record shared by the end-to-end
// baseline trainers: a "baseline/episode" telemetry line plus
// <method>.{episodes,steps,collisions,successes,episode_reward} metrics.
// No-op while both metrics and telemetry are disabled.
void record_episode(const char* method, int episode, const rl::EpisodeStats& stats);

// The local observation every end-to-end baseline receives: the high-level
// sensor state (lidar, speed, lane id) concatenated with the lane-camera
// features of the current lane — i.e. the union of what HERO's two layers
// see, so no method has an information advantage.
std::size_t baseline_obs_dim(const sim::LaneWorld& world);

// The active slots of `batch` in slot order, written over `slots` (which
// grows only when the batch does) — the rows every act_rows_into serves.
void active_slots(const rl::ObsBatch& batch, std::vector<std::size_t>& slots);

// Row r of `out` becomes agent `k`'s baseline observation [hl | ll(current
// lane)] for slot slots[r] of the batch — the one gather behind every
// baseline's act_rows_into override and its replay storage. `out` is
// resized in place (slots.size() × baseline obs dim).
void gather_baseline_rows(const rl::ObsBatch& batch, int agent,
                          const std::vector<std::size_t>& slots, nn::Matrix& out);
// The same observation for one (slot, agent) pair, as a replay vector.
std::vector<double> baseline_row(const rl::ObsBatch& batch, std::size_t slot,
                                 int agent);

// The loop every trainer hands the episode runner (rl/episode_runner.h):
// exploring through `trainer`, judged against the scenario's merger, each
// finished episode reported through record_episode(method) and then
// `hook`. Trainers add their on_step (transition storage, update clock).
rl::EpisodeLoop training_loop(rl::Controller& trainer, const sim::Scenario& scenario,
                              const char* method, const EpisodeHook& hook);

// Runs `episodes` episodes of `loop` with TrainConfig::batch_envs' keying:
// 0 — one lane on `world`, every draw from `rng`; E > 0 — a
// BatchLaneWorld of E lanes keyed by stream_rng(root, episode), root one
// rng.engine()() draw. The hooks' own draws come from `rng` either way.
void run_training(const rl::EpisodeLoop& loop, sim::LaneWorld& world, int batch_envs,
                  int episodes, Rng& rng);

// Primitive action bounds shared by the continuous-control baselines
// (the envelope of the paper's per-skill ranges).
std::vector<double> primitive_lo();
std::vector<double> primitive_hi();

}  // namespace hero::algos
