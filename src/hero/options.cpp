#include "hero/options.h"

#include <cmath>

#include "common/check.h"

namespace hero::core {

const char* option_name(Option o) {
  switch (o) {
    case Option::kKeepLane: return "keep_lane";
    case Option::kSlowDown: return "slow_down";
    case Option::kAccelerate: return "accelerate";
    case Option::kLaneChange: return "lane_change";
  }
  return "?";
}

Option option_from_index(int i) {
  HERO_CHECK(i >= 0 && i < kNumOptions);
  return static_cast<Option>(i);
}

OptionActionSpace option_action_space(Option o) {
  // Paper Sec. IV-C: per-skill linear/angular speed bounds.
  switch (o) {
    case Option::kSlowDown: return {{0.04, -0.10}, {0.08, 0.10}};
    case Option::kAccelerate: return {{0.08, -0.10}, {0.14, 0.10}};
    case Option::kLaneChange: return {{0.10, 0.12}, {0.20, 0.25}};
    case Option::kKeepLane: return {{0.04, -0.10}, {0.20, 0.10}};  // not learned
  }
  return {{0.0, 0.0}, {0.0, 0.0}};
}

bool option_terminated(const OptionExecution& exec, const sim::LaneWorld& world,
                       int vehicle, const TerminationConfig& cfg) {
  const sim::VehicleState st = world.state(vehicle);
  return option_terminated(exec, world.track(), st.y, st.heading, world.done(),
                           cfg);
}

LaneChangeOutcome lane_change_outcome(const OptionExecution& exec,
                                      const sim::LaneWorld& world, int vehicle,
                                      const TerminationConfig& cfg) {
  const sim::VehicleState st = world.state(vehicle);
  return lane_change_outcome(exec, world.track(), st.y, st.heading, world.done(),
                             cfg);
}

bool option_terminated(const OptionExecution& exec, const sim::Track& track,
                       double y, double heading, bool world_done,
                       const TerminationConfig& cfg) {
  if (world_done) return true;
  if (cfg.synchronous) return exec.steps >= cfg.in_lane_duration;
  if (exec.option == Option::kLaneChange) {
    return lane_change_outcome(exec, track, y, heading, world_done, cfg) !=
           LaneChangeOutcome::kInProgress;
  }
  return exec.steps >= cfg.in_lane_duration;
}

LaneChangeOutcome lane_change_outcome(const OptionExecution& exec,
                                      const sim::Track& track, double y,
                                      double heading, bool world_done,
                                      const TerminationConfig& cfg) {
  const double y_err = std::abs(y - track.lane_center(exec.target_lane));
  if (y_err < cfg.lane_change_tol_y &&
      std::abs(heading) < cfg.lane_change_tol_heading) {
    return LaneChangeOutcome::kSuccess;
  }
  if (exec.steps >= cfg.lane_change_max_steps || world_done) {
    return LaneChangeOutcome::kFail;
  }
  return LaneChangeOutcome::kInProgress;
}

double driving_in_lane_reward(const sim::LaneWorld& world, int vehicle,
                              double travel_m, const IntrinsicRewardConfig& cfg) {
  const sim::VehicleState st = world.state(vehicle);
  const int lane = world.lane(vehicle);
  const double deviate =
      std::abs(st.y - world.track().lane_center(lane)) /
      (0.5 * world.track().lane_width());
  const double r_deviate = -deviate;  // 0 when centred, −1 at the lane edge
  const double r_travel = travel_m / cfg.travel_norm;
  return cfg.beta * r_deviate + (1.0 - cfg.beta) * r_travel;
}

double lane_change_reward(LaneChangeOutcome outcome, double travel_m,
                          const IntrinsicRewardConfig& cfg) {
  switch (outcome) {
    case LaneChangeOutcome::kSuccess: return cfg.lane_change_bonus;
    case LaneChangeOutcome::kFail: return -cfg.lane_change_bonus;
    case LaneChangeOutcome::kInProgress: return travel_m / cfg.travel_norm;
  }
  return 0.0;
}

}  // namespace hero::core
