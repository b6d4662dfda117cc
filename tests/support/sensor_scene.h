// Stages a hand-built scene of vehicle states into the production sensor
// cores, the way the world does: lidar boxes re-centred ego-relative through
// the track's wrapped metric into LidarSensor::scan_into, and the camera's
// lead search through a SpatialIndex built over the scene into
// LaneCamera::features_into. Lets sensor unit tests check shipped code
// without constructing a world.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/features.h"
#include "sim/lidar.h"
#include "sim/spatial_index.h"

namespace hero::sim {

inline std::vector<double> scene_scan(const LidarSensor& lidar,
                                      const std::vector<VehicleState>& scene,
                                      std::size_t ego, const Track& track,
                                      Rng* noise_rng = nullptr,
                                      const VehicleParams& params = {}) {
  const VehicleState& e = scene[ego];
  std::vector<Obb> boxes;
  for (std::size_t i = 0; i < scene.size(); ++i) {
    if (i == ego) continue;
    boxes.push_back(Obb{{e.x + track.signed_dx(e.x, scene[i].x), scene[i].y},
                        scene[i].heading, 0.5 * params.length, 0.5 * params.width});
  }
  std::vector<double> out(static_cast<std::size_t>(lidar.config().num_beams));
  lidar.scan_into(e.x, e.y, e.heading, boxes.data(), boxes.size(), noise_rng,
                  out.data());
  return out;
}

inline std::vector<double> scene_features(const LaneCamera& cam,
                                          const std::vector<VehicleState>& scene,
                                          std::size_t ego, const Track& track,
                                          int reference_lane,
                                          Rng* noise_rng = nullptr,
                                          const VehicleParams& params = {}) {
  std::vector<double> xs, ys, speeds;
  for (const VehicleState& s : scene) {
    xs.push_back(s.x);
    ys.push_back(s.y);
    speeds.push_back(s.speed);
  }
  SpatialIndex index;
  index.build(xs.data(), static_cast<int>(scene.size()), track.circumference());
  std::vector<double> out(kLaneCameraDim);
  cam.features_into(scene[ego], params.max_speed, xs.data(), ys.data(),
                    speeds.data(), ego, track, reference_lane, noise_rng, index,
                    out.data());
  return out;
}

}  // namespace hero::sim
