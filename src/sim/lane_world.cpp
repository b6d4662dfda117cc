#include "sim/lane_world.h"

namespace hero::sim {

LaneWorld::LaneWorld(const LaneWorldConfig& cfg) : world_(cfg, /*num_envs=*/1) {}

StepResult LaneWorld::step(const std::vector<TwistCmd>& cmds, Rng& rng) {
  HERO_CHECK_MSG(!done(), "step() called on a finished episode; call reset()");
  HERO_CHECK_MSG(cmds.size() == learners().size(),
                 "expected " << learners().size() << " commands, got " << cmds.size());
  Rng* rngs[] = {&rng};
  const std::uint8_t active = 1;
  world_.step_all(cmds.data(), rngs, &active, out_);

  StepResult r;
  r.reward = out_.reward;
  r.travel = out_.travel;
  r.collision = out_.collision[0] != 0;
  for (int i = 0; i < num_vehicles(); ++i) {
    if (world_.hit(0, i)) r.collided.push_back(i);
  }
  r.done = out_.done[0] != 0;
  return r;
}

std::vector<double> LaneWorld::high_level_obs(int vehicle, Rng* noise_rng) const {
  std::vector<double> obs(high_level_obs_dim());
  high_level_obs_into(vehicle, obs.data(), noise_rng);
  return obs;
}

std::vector<double> LaneWorld::low_level_obs(int vehicle, int reference_lane,
                                             Rng* noise_rng) const {
  std::vector<double> obs(low_level_obs_dim());
  low_level_obs_into(vehicle, reference_lane, obs.data(), noise_rng);
  return obs;
}

}  // namespace hero::sim
