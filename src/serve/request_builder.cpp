#include "serve/request_builder.h"

namespace hero::serve {

void fill_request_from_world(const sim::LaneWorld& world, bool reset,
                             ActRequest* req) {
  const std::size_t n = static_cast<std::size_t>(world.num_learners());
  const std::size_t hl_dim = world.high_level_obs_dim();
  const std::size_t ll_dim = world.low_level_obs_dim();
  const int lanes = world.track().num_lanes();

  req->reset = reset ? 1 : 0;
  req->y.resize(n);
  req->heading.resize(n);
  req->speed.resize(n);
  req->lane.resize(n);
  req->hl.resize(n * hl_dim);
  req->ll.resize(n * static_cast<std::size_t>(lanes) * ll_dim);

  for (std::size_t k = 0; k < n; ++k) {
    const int vi = world.learners()[k];
    const sim::VehicleState st = world.state(vi);
    req->y[k] = st.y;
    req->heading[k] = st.heading;
    req->speed[k] = st.speed;
    req->lane[k] = world.lane(vi);

    world.high_level_obs_into(vi, req->hl.data() + k * hl_dim);
    for (int lane = 0; lane < lanes; ++lane) {
      world.low_level_obs_into(
          vi, lane,
          req->ll.data() +
              (k * static_cast<std::size_t>(lanes) + static_cast<std::size_t>(lane)) *
                  ll_dim);
    }
  }
}

}  // namespace hero::serve
