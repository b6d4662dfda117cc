// LaneCamera: the low-level perception substitute.
//
// The paper feeds the raw on-board camera image through a CNN whose job is
// to recover lane-relative geometry (where am I in the lane, how tilted,
// what is ahead). We expose those quantities directly as a compact feature
// vector — see DESIGN.md §2 for why this preserves the control problem.
#pragma once

#include "common/rng.h"
#include "sim/vehicle.h"

namespace hero::sim {

class SpatialIndex;

struct LaneCameraConfig {
  double lead_range = 2.0;    // how far ahead the camera can resolve a leader
  double noise_stddev = 0.0;  // feature noise (real-world mode)
};

// Feature layout (all roughly in [-1, 1]):
//   [0] lateral offset from the *reference lane* centre, / lane width
//   [1] sin(heading)
//   [2] cos(heading)
//   [3] forward gap to the nearest vehicle in the ego's current lane, / range
//   [4] that leader's speed relative to ego, / max_speed
//   [5] signed lateral offset to the reference lane centre from the *other*
//       lane's centre, / lane width (tells a lane-change policy how far the
//       manoeuvre still has to go)
// The reference lane is the ego's current lane for in-lane skills and the
// target lane during a lane change.
constexpr std::size_t kLaneCameraDim = 6;

class LaneCamera {
 public:
  explicit LaneCamera(const LaneCameraConfig& cfg = {});

  // Zero-allocation feature core over raw per-vehicle state arrays (the SoA
  // views of the batched world): `xs`/`ys`/`speeds` hold every vehicle of
  // the scene including the ego at `ego_index`, and `index` is the scene's
  // SpatialIndex built over `xs`. Writes kLaneCameraDim doubles to `out`.
  //
  // The lead search only visits vehicles the index reports inside the
  // forward window [ego.x, ego.x + lead_range] — a conservative superset of
  // every possible leader, visited in the same ascending-id order as a full
  // scan, so the features are bitwise identical to scanning every vehicle
  // (the test oracle's full-scan camera, tests/test_spatial_index.cpp).
  void features_into(const VehicleState& ego, double ego_max_speed,
                     const double* xs, const double* ys, const double* speeds,
                     std::size_t ego_index, const Track& track,
                     int reference_lane, Rng* noise_rng,
                     const SpatialIndex& index, double* out) const;

  const LaneCameraConfig& config() const { return cfg_; }

 private:
  LaneCameraConfig cfg_;
};

}  // namespace hero::sim
