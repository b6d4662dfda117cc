// BatchLaneWorld: the multi-vehicle cooperative lane-change environment,
// E instances stepped in lockstep in structure-of-arrays form
// (docs/BATCHING.md).
//
// Substitutes the paper's Gazebo world and physical testbed (DESIGN.md §2).
// The world integrates unicycle vehicles on a ring track, renders lidar
// scans and lane-camera features, detects collisions, and computes the
// paper's high-level team reward  r_h = α·r_col + (1−α)·r_travel.
// "Real-world" evaluation (Table II) enables the domain-shift knobs: sensor
// noise, actuation noise, command latency and per-episode dynamics
// perturbation.
//
// This is the only world engine. Episode state lives in flat env-major
// arrays (x_[e*V + i] is vehicle i of env e) and step_all advances every
// live environment in one pass per phase: command resolution (latency rings
// + actuation perturbation), unicycle integration, collision detection, and
// reward computation. A single environment is a batch of one: LaneWorld
// (sim/lane_world.h) is that E=1 view.
//
// Collision detection and sensing share one SpatialIndex per (env, step):
// vehicles sorted by wrapped arc length. The collision broad-phase sweeps
// each vehicle's cyclic successors until the ring gap exceeds 2·reach
// (reach = hypot(half_len, half_wid), the footprint's circumradius) — pairs
// farther apart cannot overlap — and the lidar box staging and the camera's
// lead search query the same index, shrinking per-ego candidate sets from V
// to the k vehicles inside the sensor window. Every pruning step is
// conservative, so collision sets and observations are bitwise identical to
// the all-pairs reference, which lives as a test oracle in tests/support
// (tests/test_sim.cpp, tests/test_spatial_index.cpp).
//
// Per-env equivalence: env e stepped with RNG stream R consumes exactly the
// draws a lone environment would (learners ascending, then per-vehicle
// episode jitter), so lanes of one batch never leak into each other
// (tests/test_sim.cpp at E=1 and E=16).
//
// Thread-safety: an instance is confined to one thread at a time —
// reset/step mutate internal state and observation methods use mutable
// scratch. The only state shared between instances is the obs metrics
// registry (atomic counters), so concurrent users (the stage-1 skill pool)
// keep one instance per task and never lock (docs/PARALLELISM.md).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/features.h"
#include "sim/lidar.h"
#include "sim/spatial_index.h"
#include "sim/track.h"
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

  // --- domain shift (Table II real-world mode) ---
  double actuation_noise = 0.0;  // multiplicative linear / additive angular
  int actuation_latency = 0;     // command delay in control steps
  double param_jitter = 0.0;     // per-episode speed-gain / heading-drift σ
};

// Returns `cfg` with the real-world shift knobs of the paper's testbed
// enabled (sensor + actuation noise, 1-step latency, dynamics mismatch).
LaneWorldConfig with_real_world_shift(LaneWorldConfig cfg);

// One environment's step output (LaneWorld::step).
struct StepResult {
  std::vector<double> reward;   // high-level team reward per learning agent
  std::vector<double> travel;   // forward progress per vehicle this step (m)
  bool collision = false;       // any collision / off-road this step
  std::vector<int> collided;    // indices of vehicles involved
  bool done = false;            // collision or step limit
};

// Flat per-round step output: env-major arrays sized at construction, no
// per-step allocation after the first use.
struct BatchStepResult {
  std::vector<double> reward;          // E × num_learners
  std::vector<double> travel;          // E × num_vehicles
  std::vector<std::uint8_t> collision; // per env: any collision this step
  std::vector<std::uint8_t> done;      // per env: collision or step limit
};

class BatchLaneWorld {
 public:
  BatchLaneWorld(const LaneWorldConfig& cfg, int num_envs);

  int num_envs() const { return E_; }
  int num_vehicles() const { return V_; }
  const std::vector<int>& learners() const { return learners_; }
  int num_learners() const { return static_cast<int>(learners_.size()); }

  // Re-places env e's vehicles per the specs (with jitter) and samples the
  // episode's domain-shift perturbations: per vehicle, the start jitter,
  // then (real-world mode only) the dynamics perturbation pair.
  void reset_env(int e, Rng& rng);

  // Advances every env with active[e] != 0 by one control period. `cmds` is
  // env-major (cmds[e*num_learners + k] drives learner k of env e) and
  // rngs[e] is env e's stream — each active env consumes exactly the draws
  // a lone environment would. Scripted vehicles drive themselves. Inactive
  // envs are untouched; their `out` entries are zeroed.
  void step_all(const TwistCmd* cmds, Rng* const* rngs,
                const std::uint8_t* active, BatchStepResult& out);

  // --- observations (zero-alloc) ---
  // High-level state s_h = [lidar..., speed/vmax, laneID] (paper Sec. IV-B).
  void high_level_obs_into(int e, int vehicle, double* out,
                           Rng* noise_rng = nullptr) const;
  std::size_t high_level_obs_dim() const {
    return static_cast<std::size_t>(cfg_.lidar.num_beams) + 2;
  }
  // Low-level state s_l = [camera features..., speed/vmax, laneID] relative
  // to `reference_lane` (paper Sec. IV-C).
  void low_level_obs_into(int e, int vehicle, int reference_lane, double* out,
                          Rng* noise_rng = nullptr) const;
  std::size_t low_level_obs_dim() const { return kLaneCameraDim + 2; }

  // --- inspection ---
  VehicleState state(int e, int i) const;
  // Tests and skill wrappers overwrite start states through this.
  // Invalidates env e's spatial index.
  void set_state(int e, int i, const VehicleState& s);
  int lane(int e, int i) const { return track_.lane_of(y_[flat(e, i)]); }
  int steps(int e) const { return steps_[static_cast<std::size_t>(e)]; }
  bool done(int e) const { return done_[static_cast<std::size_t>(e)] != 0; }
  bool had_collision(int e) const {
    return had_collision_[static_cast<std::size_t>(e)] != 0;
  }
  // Whether vehicle i of env e was in the collision set of the last step
  // (StepResult::collided in flag form).
  bool hit(int e, int i) const { return hit_[flat(e, i)] != 0; }
  double total_travel(int e, int i) const { return total_travel_[flat(e, i)]; }
  double mean_speed(int e, int i) const;
  const Track& track() const { return track_; }
  const LaneWorldConfig& config() const { return cfg_; }

 private:
  std::size_t flat(int e, int i) const {
    return static_cast<std::size_t>(e) * static_cast<std::size_t>(V_) +
           static_cast<std::size_t>(i);
  }

  // Hot-path phases of step_all. Named step_* so lint rule R6
  // (no per-element vector growth in BatchLaneWorld::step* bodies) covers
  // them — the whole step path must stay free of per-step allocation.
  void step_resolve(const TwistCmd* cmds, Rng* const* rngs,
                    const std::uint8_t* active);
  void step_integrate(const std::uint8_t* active, BatchStepResult& out);
  void step_collide(const std::uint8_t* active, BatchStepResult& out);
  void step_rewards(const std::uint8_t* active, BatchStepResult& out);

  // Returns env e's SpatialIndex, rebuilding it from the current SoA state
  // if a reset or set_state invalidated it.
  const SpatialIndex& ensure_index(int e) const;

  LaneWorldConfig cfg_;
  Track track_;
  LidarSensor lidar_;
  LaneCamera camera_;
  int E_ = 0;
  int V_ = 0;
  std::vector<int> learners_;
  double reach_ = 0.0;  // footprint circumradius, broad-phase threshold / 2

  // SoA episode state, env-major (index flat(e, i)).
  std::vector<double> x_, y_, heading_, speed_, yaw_;
  std::vector<double> total_travel_;
  std::vector<double> speed_gain_, heading_drift_;
  std::vector<int> steps_;                  // per env
  std::vector<std::uint8_t> done_, had_collision_;  // per env

  // Latency rings: a fixed-capacity command queue per vehicle. Capacity =
  // actuation_latency; count < capacity means the queue is still filling
  // (hold the pre-step speed, no steering).
  int lat_cap_ = 0;
  std::vector<TwistCmd> lat_buf_;  // E × V × lat_cap_
  std::vector<int> lat_head_, lat_count_;  // E × V

  // step scratch (preallocated in the constructor)
  std::vector<TwistCmd> exec_;       // E × V resolved commands
  std::vector<std::uint8_t> hit_;    // E × V collision flags of the last step
  mutable std::vector<Obb> obs_boxes_;  // V, lidar box staging

  // Per-env arc-length index shared by collision broad-phase and sensing;
  // rebuilt eagerly in step_collide and lazily (via ensure_index) when a
  // reset or set_state dirtied the env. Mutable: obs methods are const.
  mutable std::vector<SpatialIndex> indices_;      // E
  mutable std::vector<std::uint8_t> idx_dirty_;    // E
};

}  // namespace hero::sim
