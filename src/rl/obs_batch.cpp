#include "rl/obs_batch.h"

#include "common/check.h"

namespace hero::rl {

void ObsBatch::configure(int num_learners, std::size_t hl_dim, std::size_t ll_dim,
                         int num_lanes) {
  HERO_CHECK(num_learners > 0 && num_lanes > 0);
  n_ = num_learners;
  hl_dim_ = hl_dim;
  ll_dim_ = ll_dim;
  num_lanes_ = num_lanes;
  count_ = 0;
}

void ObsBatch::set_count(std::size_t count) {
  HERO_CHECK_MSG(n_ > 0, "ObsBatch::configure must run before set_count");
  count_ = count;
  metas_.assign(count, SlotMeta{});
  scalars_.resize(count * static_cast<std::size_t>(n_));
  hl_.resize(count * static_cast<std::size_t>(n_), hl_dim_);
  ll_.resize(count * static_cast<std::size_t>(n_) * static_cast<std::size_t>(num_lanes_),
             ll_dim_);
}

double* ObsBatch::ll_row(std::size_t s, int k, int reference_lane) {
  HERO_DCHECK(reference_lane >= 0 && reference_lane < num_lanes_);
  return ll_.row_ptr(agent_index(s, k) * static_cast<std::size_t>(num_lanes_) +
                     static_cast<std::size_t>(reference_lane));
}

const double* ObsBatch::ll_row(std::size_t s, int k, int reference_lane) const {
  HERO_DCHECK(reference_lane >= 0 && reference_lane < num_lanes_);
  return ll_.row_ptr(agent_index(s, k) * static_cast<std::size_t>(num_lanes_) +
                     static_cast<std::size_t>(reference_lane));
}

void ObsBatch::set_slot_from_world(std::size_t s, const sim::BatchLaneWorld& world,
                                   int e, bool reset, Rng* noise_rng) {
  HERO_CHECK_MSG(world.num_learners() == n_,
                 "world has " << world.num_learners() << " learners, batch expects "
                              << n_);
  HERO_CHECK(world.high_level_obs_dim() == hl_dim_ &&
             world.low_level_obs_dim() == ll_dim_ &&
             world.track().num_lanes() == num_lanes_);
  SlotMeta& m = metas_[s];
  m.track = &world.track();
  m.dt = world.config().dt;
  m.reset = reset;
  m.active = true;
  for (int k = 0; k < n_; ++k) {
    const int vi = world.learners()[static_cast<std::size_t>(k)];
    const sim::VehicleState st = world.state(e, vi);
    AgentScalars& sc = scalars(s, k);
    sc.y = st.y;
    sc.heading = st.heading;
    sc.speed = st.speed;
    sc.lane = world.lane(e, vi);
    world.high_level_obs_into(e, vi, hl_row(s, k), noise_rng);
    for (int lane = 0; lane < num_lanes_; ++lane) {
      world.low_level_obs_into(e, vi, lane, ll_row(s, k, lane), noise_rng);
    }
  }
}

}  // namespace hero::rl
