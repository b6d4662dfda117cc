// 360° lidar model: N evenly-spaced beams raycast from the ego vehicle
// against the other vehicles' footprints, range-clipped and normalized.
// This is the paper's `s_lidar` component of the high-level state.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/geometry.h"

namespace hero::sim {

// Octant-reduced polynomial atan2 used by the beam cull to locate a box's
// centre direction without a libm call. Its absolute error is below
// kLidarAtanApproxMaxErr everywhere (enforced by a dense sweep in
// tests/test_spatial_index.cpp); the cull widens its angular interval by
// that bound, so the approximation can only admit extra beams — never skip
// one that could hit. Requires (x, y) != (0, 0).
double approx_atan2(double y, double x);
inline constexpr double kLidarAtanApproxMaxErr = 0.004;  // radians

struct LidarConfig {
  int num_beams = 24;  // 15° spacing keeps a car-sized target ≥1 beam wide at 1 m
  double max_range = 2.0;     // metres
  double noise_stddev = 0.0;  // additive Gaussian range noise (real-world mode)
};

class LidarSensor {
 public:
  explicit LidarSensor(const LidarConfig& cfg = {});

  // Raycasts num_beams beams from pose (x, y, heading) against `num_boxes`
  // pre-placed footprints (already re-centred relative to the ego through
  // the track's wrapped metric, so the ring topology is respected) and
  // writes num_beams ranges normalized to [0, 1] (1 = nothing within
  // max_range) to `out`. Beam 0 points along the ego heading; beams sweep
  // CCW. Zero-allocation: the world's observation calls stage boxes into
  // reused buffers and land here.
  // Noise draws (when enabled) are per beam, independent of the box set.
  //
  // Narrow phase: per staged box, only the beams inside the angular interval
  // subtended by the box's circumcircle (± a safety margin) are raycast —
  // beams outside it provably miss, so the per-beam minima (and therefore
  // the output) are bitwise identical to testing every beam against every
  // box (the test oracle's all-pairs scan, tests/test_spatial_index.cpp).
  void scan_into(double x, double y, double heading, const Obb* boxes,
                 std::size_t num_boxes, Rng* noise_rng, double* out) const;

  const LidarConfig& config() const { return cfg_; }

 private:
  LidarConfig cfg_;
  // Per-scan scratch, sized at construction. Mutable: a sensor instance is
  // thread-confined like the world that owns it (docs/PARALLELISM.md).
  mutable std::vector<double> best_;        // per-beam running minimum
  mutable std::vector<Vec2> dirs_;          // per-beam direction cache
  mutable std::vector<std::uint8_t> dir_ok_;  // which dirs_ entries are live
};

}  // namespace hero::sim
