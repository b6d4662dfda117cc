#include "rl/controller.h"

namespace hero::rl {

std::vector<sim::TwistCmd> Controller::act(const sim::LaneWorld& world, Rng& rng,
                                           bool explore) {
  const int n = world.num_learners();
  one_.configure(n, world.high_level_obs_dim(), world.low_level_obs_dim(),
                 world.track().num_lanes());
  one_.set_count(1);
  one_.set_slot_from_world(0, world.batch_world(), 0, reset_next_, &rng);
  reset_next_ = false;
  std::vector<sim::TwistCmd> cmds(static_cast<std::size_t>(n));
  Rng* const rngs[] = {&rng};
  act_rows_into(one_, rngs, explore, cmds.data());
  return cmds;
}

}  // namespace hero::rl
