// Kinematic vehicle model.
//
// The testbed robots are differential-drive platforms commanded with a
// (linear speed, angular speed) twist — exactly the paper's low-level action
// space — so a unicycle integrator is the faithful dynamics model.
#pragma once

#include <algorithm>
#include <cmath>

#include "sim/geometry.h"
#include "sim/track.h"

namespace hero::sim {

struct VehicleParams {
  double length = 0.30;        // metres
  double width = 0.18;
  double max_speed = 0.25;     // hard actuator limits (beyond the RL bounds)
  double min_speed = 0.0;
  double max_yaw_rate = 0.6;
  double max_heading = 1.0;    // |heading| clamp vs the road axis (radians)
};

struct VehicleState {
  double x = 0.0;        // arc length along the track (wraps)
  double y = 0.0;        // lateral offset
  double heading = 0.0;  // relative to the road axis
  double speed = 0.0;    // last commanded linear speed
  double yaw_rate = 0.0; // last commanded angular speed
};

struct TwistCmd {
  double linear = 0.0;
  double angular = 0.0;
};

// One control period of the unicycle integrator: commands clamped to the
// actuator limits (heading clamped so a vehicle can never drive
// perpendicular to the road, matching the bounded-steering testbed),
// mid-point heading integration, arc length wrapped through the track.
// Defined inline in this header because the BatchLaneWorld kinematics pass
// *and* the test oracle's per-vehicle integrator both call it — sharing one
// set of expressions is what keeps the two bitwise equal even when the
// compiler contracts floating-point expressions (contraction decisions are
// made per expression, not per call site).
inline VehicleState integrate_unicycle(const VehicleParams& params,
                                       const VehicleState& s, const TwistCmd& cmd,
                                       double dt, const Track& track) {
  const double v = std::clamp(cmd.linear, params.min_speed, params.max_speed);
  const double w = std::clamp(cmd.angular, -params.max_yaw_rate, params.max_yaw_rate);

  // Mid-point heading integration keeps trajectories rotation-consistent at
  // the coarse control rate used here.
  const double h0 = s.heading;
  const double h1 =
      std::clamp(wrap_angle(h0 + w * dt), -params.max_heading, params.max_heading);
  const double hm = 0.5 * (h0 + h1);

  VehicleState next;
  next.x = track.wrap_x(s.x + v * std::cos(hm) * dt);
  next.y = s.y + v * std::sin(hm) * dt;
  next.heading = h1;
  next.speed = v;
  next.yaw_rate = w;
  return next;
}

}  // namespace hero::sim
