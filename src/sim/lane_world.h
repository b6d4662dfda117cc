// LaneWorld: one environment of the lane-change world.
//
// A single environment is a batch of one: LaneWorld holds a
// BatchLaneWorld(cfg, 1) and forwards to its env 0, so stage-1 skill
// training, evaluation, serving and traces step the same engine as batched
// stage-2 collection (sim/batch_lane_world.h describes the world itself).
// The view adds the per-step StepResult form — per-learner rewards, per-
// vehicle travel and the collided vehicle list — and the allocating
// observation overloads that cold paths use.
//
// Thread-safety: as BatchLaneWorld — one thread at a time per instance.
#pragma once

#include <vector>

#include "sim/batch_lane_world.h"

namespace hero::sim {

class LaneWorld {
 public:
  explicit LaneWorld(const LaneWorldConfig& cfg);

  int num_vehicles() const { return world_.num_vehicles(); }
  // Indices of non-scripted vehicles, in order; rewards/commands use this order.
  const std::vector<int>& learners() const { return world_.learners(); }
  int num_learners() const { return world_.num_learners(); }

  // Re-places all vehicles per the specs (with jitter) and samples the
  // episode's domain-shift perturbations.
  void reset(Rng& rng) { world_.reset_env(0, rng); }

  // Advances one control period. `cmds[k]` drives learner k
  // (= vehicle learners()[k]); scripted vehicles drive themselves.
  StepResult step(const std::vector<TwistCmd>& cmds, Rng& rng);

  // --- observations ---
  // High-level state s_h = [lidar..., speed/vmax, laneID] (paper Sec. IV-B).
  std::vector<double> high_level_obs(int vehicle, Rng* noise_rng = nullptr) const;
  std::size_t high_level_obs_dim() const { return world_.high_level_obs_dim(); }

  // Low-level state s_l = [camera features..., speed/vmax, laneID]
  // relative to `reference_lane` (paper Sec. IV-C).
  std::vector<double> low_level_obs(int vehicle, int reference_lane,
                                    Rng* noise_rng = nullptr) const;
  std::size_t low_level_obs_dim() const { return world_.low_level_obs_dim(); }

  // Zero-allocation observation cores (layout identical to the vector
  // overloads, which delegate here). `out` must hold *_obs_dim() doubles.
  void high_level_obs_into(int vehicle, double* out,
                           Rng* noise_rng = nullptr) const {
    world_.high_level_obs_into(0, vehicle, out, noise_rng);
  }
  void low_level_obs_into(int vehicle, int reference_lane, double* out,
                          Rng* noise_rng = nullptr) const {
    world_.low_level_obs_into(0, vehicle, reference_lane, out, noise_rng);
  }

  // The engine behind this view; the environment is its env 0. Batch-first
  // extraction (rl::ObsBatch::set_slot_from_world) reads it, and the
  // episode runner (rl/episode_runner.h) resets and steps it.
  const BatchLaneWorld& batch_world() const { return world_; }
  BatchLaneWorld& batch_world() { return world_; }

  // --- inspection ---
  VehicleState state(int i) const { return world_.state(0, i); }
  // Skill-training wrappers perturb start states (lateral offset / heading
  // jitter) through this right after reset().
  void set_state(int i, const VehicleState& s) { world_.set_state(0, i, s); }
  const Track& track() const { return world_.track(); }
  const LaneWorldConfig& config() const { return world_.config(); }
  int lane(int i) const { return world_.lane(0, i); }
  int steps() const { return world_.steps(0); }
  bool done() const { return world_.done(0); }
  bool had_collision() const { return world_.had_collision(0); }
  double total_travel(int i) const { return world_.total_travel(0, i); }
  // Mean speed of vehicle i over the episode so far (metres / second).
  double mean_speed(int i) const { return world_.mean_speed(0, i); }

 private:
  BatchLaneWorld world_;
  BatchStepResult out_;  // flat step output, reused across steps
};

}  // namespace hero::sim
