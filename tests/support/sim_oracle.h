// All-pairs reference implementation of the lane-change world, for tests.
//
// The production world (sim::BatchLaneWorld and its one-env view
// sim::LaneWorld) prunes every O(V²) loop through a shared SpatialIndex and
// culls lidar beams per box. This oracle is the same world written the
// direct way: an array of Vehicle objects, every vehicle pair through the
// SAT test, every other footprint staged unpruned for every beam, the
// camera's lead search over every vehicle, and command latency as a vector
// queue. It keeps LaneWorld's interface, so the equivalence suites compare
// the two by type, bit for bit (tests/test_sim.cpp,
// tests/test_spatial_index.cpp). Shared pieces — integrate_unicycle, Track,
// the geometry primitives — are production code the oracle calls, not
// re-derives.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "sim/batch_lane_world.h"

namespace hero::sim::oracle {

// One unicycle vehicle: its state and the shared integrator.
class Vehicle {
 public:
  Vehicle() = default;
  Vehicle(const VehicleParams& params, const VehicleState& initial)
      : params_(params), state_(initial) {}

  // Integrates one control period (integrate_unicycle).
  void step(const TwistCmd& cmd, double dt, const Track& track) {
    state_ = integrate_unicycle(params_, state_, cmd, dt, track);
  }

  const VehicleState& state() const { return state_; }
  VehicleState& mutable_state() { return state_; }

  // Footprint for collision / lidar in (x, y) road coordinates.
  Obb footprint() const {
    return Obb{{state_.x, state_.y}, state_.heading, 0.5 * params_.length,
               0.5 * params_.width};
  }

  int lane(const Track& track) const { return track.lane_of(state_.y); }

 private:
  VehicleParams params_;
  VehicleState state_;
};

// Every beam against every staged box: the narrow phase that
// LidarSensor::scan_into's angular cull must reproduce. Same contract and
// output layout as scan_into.
void scan_allpairs(const LidarConfig& cfg, double x, double y, double heading,
                   const Obb* boxes, std::size_t num_boxes, Rng* noise_rng,
                   double* out);

// Lane-camera features with the lead search over all `n` vehicles: what
// LaneCamera::features_into's index-staged search must reproduce.
void camera_allpairs(const LaneCameraConfig& cfg, const VehicleState& ego,
                     double ego_max_speed, const double* xs, const double* ys,
                     const double* speeds, std::size_t n, std::size_t ego_index,
                     const Track& track, int reference_lane, Rng* noise_rng,
                     double* out);

class LaneWorld {
 public:
  explicit LaneWorld(const LaneWorldConfig& cfg);

  int num_vehicles() const { return static_cast<int>(vehicles_.size()); }
  const std::vector<int>& learners() const { return learners_; }
  int num_learners() const { return static_cast<int>(learners_.size()); }

  void reset(Rng& rng);
  StepResult step(const std::vector<TwistCmd>& cmds, Rng& rng);

  std::vector<double> high_level_obs(int vehicle, Rng* noise_rng = nullptr) const;
  std::size_t high_level_obs_dim() const;
  std::vector<double> low_level_obs(int vehicle, int reference_lane,
                                    Rng* noise_rng = nullptr) const;
  std::size_t low_level_obs_dim() const;
  void high_level_obs_into(int vehicle, double* out,
                           Rng* noise_rng = nullptr) const;
  void low_level_obs_into(int vehicle, int reference_lane, double* out,
                          Rng* noise_rng = nullptr) const;

  VehicleState state(int i) const {
    return vehicles_[static_cast<std::size_t>(i)].state();
  }
  void set_state(int i, const VehicleState& s) {
    vehicles_[static_cast<std::size_t>(i)].mutable_state() = s;
  }
  const Track& track() const { return track_; }
  const LaneWorldConfig& config() const { return cfg_; }
  int lane(int i) const { return vehicles_[static_cast<std::size_t>(i)].lane(track_); }
  int steps() const { return steps_; }
  bool done() const { return done_; }
  bool had_collision() const { return had_collision_; }
  double total_travel(int i) const { return total_travel_[static_cast<std::size_t>(i)]; }
  double mean_speed(int i) const;

 private:
  TwistCmd perturbed(int vehicle, TwistCmd cmd, Rng& rng) const;
  void detect_collisions(StepResult& out) const;

  LaneWorldConfig cfg_;
  Track track_;
  std::vector<Vehicle> vehicles_;
  std::vector<int> learners_;

  int steps_ = 0;
  bool done_ = false;
  bool had_collision_ = false;
  std::vector<double> total_travel_;
  std::vector<std::vector<TwistCmd>> latency_queues_;
  std::vector<double> speed_gain_;     // per-episode actuator miscalibration
  std::vector<double> heading_drift_;  // per-episode steering bias (rad/s)
};

}  // namespace hero::sim::oracle
