// LaneWorld: the multi-vehicle cooperative lane-change environment.
//
// Substitutes the paper's Gazebo world and physical testbed (DESIGN.md §2).
// The world integrates unicycle vehicles on a two-lane ring track, renders
// lidar scans and lane-camera features, detects collisions, and computes the
// paper's high-level team reward  r_h = α·r_col + (1−α)·r_travel.
//
// "Real-world" evaluation (Table II) uses the same class with the domain-
// shift knobs enabled: sensor noise, actuation noise, command latency and
// per-episode dynamics perturbation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "sim/features.h"
#include "sim/lidar.h"
#include "sim/spatial_index.h"
#include "sim/vehicle.h"

namespace hero::sim {

// Per-vehicle scenario placement and role.
struct VehicleSpec {
  int start_lane = 0;
  double start_x = 0.0;        // nominal arc-length position
  double start_x_jitter = 0.0; // uniform ±jitter applied at reset
  double start_speed = 0.1;
  bool scripted = false;       // plodding vehicle: constant speed, keeps lane
  double scripted_speed = 0.04;
};

struct LaneWorldConfig {
  TrackConfig track;
  VehicleParams vehicle;
  LidarConfig lidar;
  LaneCameraConfig camera;
  std::vector<VehicleSpec> specs;

  double dt = 0.5;              // control period (seconds)
  int max_steps = 30;           // paper Table I episode length
  double collision_penalty = -20.0;
  double alpha = 0.7;           // weight of r_col vs r_travel
  // Paper Sec. IV-B:  r_h^i = α·r_col + (1−α)·r_travel^i — the collision
  // penalty is shared (team safety) but the travel term is per-vehicle.
  // true switches to team-mean travel (fully shared reward) for ablation.
  bool shared_travel = false;
  bool offroad_is_collision = true;

  // Route collision broad-phase, lidar box staging and the camera's lead
  // search through the shared per-step SpatialIndex (O(V·k) sensing instead
  // of O(V²)). The pruning is conservative, so observations and collision
  // sets are bitwise identical either way — false keeps the all-pairs
  // reference path for equivalence tests and the dense-traffic benchmark
  // baseline (docs/PERFORMANCE.md).
  bool use_spatial_index = true;

  // --- domain shift (Table II real-world mode) ---
  double actuation_noise = 0.0;  // multiplicative linear / additive angular
  int actuation_latency = 0;     // command delay in control steps
  double param_jitter = 0.0;     // per-episode speed-gain / heading-drift σ
};

// Returns `cfg` with the real-world shift knobs of the paper's testbed
// enabled (sensor + actuation noise, 1-step latency, dynamics mismatch).
LaneWorldConfig with_real_world_shift(LaneWorldConfig cfg);

struct StepResult {
  std::vector<double> reward;   // high-level team reward per learning agent
  std::vector<double> travel;   // forward progress per vehicle this step (m)
  bool collision = false;       // any collision / off-road this step
  std::vector<int> collided;    // indices of vehicles involved
  bool done = false;            // collision or step limit
};

// Thread-safety: a LaneWorld instance is confined to one thread at a time —
// reset/step mutate internal state and draw from the caller's Rng. The only
// state shared between instances is the obs metrics registry (atomic
// counters), so concurrent users (the stage-1 skill pool) keep one instance
// per task and never lock (docs/PARALLELISM.md).
class LaneWorld {
 public:
  explicit LaneWorld(const LaneWorldConfig& cfg);

  int num_vehicles() const { return static_cast<int>(vehicles_.size()); }
  // Indices of non-scripted vehicles, in order; rewards/commands use this order.
  const std::vector<int>& learners() const { return learners_; }
  int num_learners() const { return static_cast<int>(learners_.size()); }

  // Re-places all vehicles per the specs (with jitter) and samples the
  // episode's domain-shift perturbations.
  void reset(Rng& rng);

  // Advances one control period. `cmds[k]` drives learner k
  // (= vehicle learners()[k]); scripted vehicles drive themselves.
  StepResult step(const std::vector<TwistCmd>& cmds, Rng& rng);

  // --- observations ---
  // High-level state s_h = [lidar..., speed/vmax, laneID] (paper Sec. IV-B).
  std::vector<double> high_level_obs(int vehicle, Rng* noise_rng = nullptr) const;
  std::size_t high_level_obs_dim() const;

  // Low-level state s_l = [camera features..., speed/vmax, laneID]
  // relative to `reference_lane` (paper Sec. IV-C).
  std::vector<double> low_level_obs(int vehicle, int reference_lane,
                                    Rng* noise_rng = nullptr) const;
  std::size_t low_level_obs_dim() const;

  // Zero-allocation observation cores (layout identical to the vector
  // overloads, which delegate here). `out` must hold *_obs_dim() doubles.
  // Candidate staging goes through the shared SpatialIndex (or the
  // all-pairs reference when use_spatial_index is off) and a reused box
  // buffer — no allocating LidarSensor::scan() on the hot path.
  void high_level_obs_into(int vehicle, double* out,
                           Rng* noise_rng = nullptr) const;
  void low_level_obs_into(int vehicle, int reference_lane, double* out,
                          Rng* noise_rng = nullptr) const;

  // --- inspection ---
  const Vehicle& vehicle(int i) const { return vehicles_[static_cast<std::size_t>(i)]; }
  // Skill-training wrappers perturb start states (lateral offset / heading
  // jitter) through this accessor right after reset(). Invalidates the
  // cached scene mirror / spatial index: the caller may move the vehicle.
  Vehicle& mutable_vehicle(int i) {
    scene_dirty_ = true;
    return vehicles_[static_cast<std::size_t>(i)];
  }
  const Track& track() const { return track_; }
  const LaneWorldConfig& config() const { return cfg_; }
  int lane(int i) const { return vehicles_[static_cast<std::size_t>(i)].lane(track_); }
  int steps() const { return steps_; }
  bool done() const { return done_; }
  bool had_collision() const { return had_collision_; }
  double total_travel(int i) const { return total_travel_[static_cast<std::size_t>(i)]; }
  // Mean speed of vehicle i over the episode so far (metres / second).
  double mean_speed(int i) const;

 private:
  TwistCmd perturbed(int vehicle, TwistCmd cmd, Rng& rng) const;
  void detect_collisions(StepResult& out) const;
  // Refreshes the SoA scene mirror (and, with use_spatial_index, the arc-
  // length index) from vehicles_ if anything moved since the last build.
  // One rebuild per step is shared by collisions and every obs call.
  void ensure_scene() const;

  LaneWorldConfig cfg_;
  Track track_;
  LidarSensor lidar_;
  LaneCamera camera_;
  std::vector<Vehicle> vehicles_;
  std::vector<int> learners_;
  double reach_ = 0.0;  // footprint circumradius (same role as the batch world)

  // episode state
  int steps_ = 0;
  bool done_ = false;
  bool had_collision_ = false;
  std::vector<double> total_travel_;
  std::vector<std::vector<TwistCmd>> latency_queues_;
  std::vector<double> speed_gain_;     // per-episode actuator miscalibration
  std::vector<double> heading_drift_;  // per-episode steering bias (rad/s)

  // Lazily rebuilt per-step scene mirror (SoA views of vehicles_) feeding
  // the spatial index, the camera core and the lidar box staging without
  // per-call allocation. Mutable: obs methods are const but cache.
  mutable bool scene_dirty_ = true;
  mutable std::vector<double> sx_, sy_, sheading_, sspeed_;
  mutable SpatialIndex index_;
  mutable std::vector<Obb> obs_boxes_;          // lidar staging scratch
  mutable std::vector<std::uint8_t> hit_scratch_;  // collision sweep scratch
};

}  // namespace hero::sim
