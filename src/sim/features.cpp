#include "sim/features.h"

#include <algorithm>
#include <cmath>

#include "sim/spatial_index.h"

namespace hero::sim {

LaneCamera::LaneCamera(const LaneCameraConfig& cfg) : cfg_(cfg) {
  HERO_CHECK(cfg_.lead_range > 0.0);
}

void LaneCamera::features_into(const VehicleState& s, double ego_max_speed,
                               const double* xs, const double* ys,
                               const double* speeds, std::size_t ego_index,
                               const Track& track, int reference_lane,
                               Rng* noise_rng, const SpatialIndex& index,
                               double* out) const {
  const double w = track.lane_width();
  const double ref_c = track.lane_center(reference_lane);
  const int ego_lane = track.lane_of(s.y);

  // Nearest vehicle ahead in the ego's current lane. Any winner of the
  // strict `d < gap` test has forward_gap < lead_range, so the index's
  // inclusive forward window [s.x, s.x + lead_range] is a superset of every
  // possible leader; candidates arrive ascending by id, the full scan's
  // visit order, so ties resolve to the same vehicle.
  double gap = cfg_.lead_range;
  double lead_rel_speed = 0.0;
  const int* ids = nullptr;
  const int k = index.query(s.x, 0.0, cfg_.lead_range,
                            static_cast<int>(ego_index), &ids);
  for (int c = 0; c < k; ++c) {
    const std::size_t i = static_cast<std::size_t>(ids[c]);
    if (track.lane_of(ys[i]) != ego_lane) continue;
    const double d = track.forward_gap(s.x, xs[i]);
    if (d < gap) {
      gap = d;
      lead_rel_speed = speeds[i] - s.speed;
    }
  }

  out[0] = (s.y - ref_c) / w;
  out[1] = std::sin(s.heading);
  out[2] = std::cos(s.heading);
  out[3] = gap / cfg_.lead_range;
  out[4] = lead_rel_speed / ego_max_speed;
  const int other_lane = reference_lane == 0 ? std::min(1, track.num_lanes() - 1) : 0;
  out[5] = (track.lane_center(other_lane) - ref_c) / w;

  if (noise_rng && cfg_.noise_stddev > 0.0) {
    for (std::size_t i = 0; i < kLaneCameraDim; ++i) {
      out[i] += noise_rng->normal(0.0, cfg_.noise_stddev);
    }
  }
}

}  // namespace hero::sim
