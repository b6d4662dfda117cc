// ObsBatch: the wire-format-agnostic observation batch behind the batch-first
// Controller API (docs/SERVING.md).
//
// One batch holds `count` environment slots × `num_learners` agents of
// extracted features — everything a controller needs to act without touching
// a live world:
//
//   * per (slot, agent): the ego scalars (y, heading, speed, lane), the
//     high-level observation row, and one low-level observation row per
//     candidate reference lane (a lane-change skill reads the target lane's
//     frame, the in-lane skills read the current lane's);
//   * per slot: the track geometry + control period needed by the steering
//     law, a `reset` marker (begin-episode), and an `active` flag so batched
//     drivers can retire finished slots without renumbering the survivors
//     (slot index is a session identity — see Controller::act_rows_into).
//
// Two producers fill it. set_slot_from_world() is the one extraction from a
// live world: the one episode loop (rl/episode_runner.h, which HERO's
// stage 2, the baselines' training and both evaluations run) and
// Controller::act's batch of one (the one env of a LaneWorld) go through
// it. The serving layer decodes client request frames straight into the
// rows (src/serve/protocol.h). Either way the
// consuming controller sees the same layout, which is what makes the served
// answers testable against the in-process ones.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "nn/matrix.h"
#include "sim/batch_lane_world.h"

namespace hero::rl {

class ObsBatch {
 public:
  // Per-slot metadata.
  struct SlotMeta {
    const sim::Track* track = nullptr;
    double dt = 0.0;
    bool reset = false;
    bool active = true;
  };

  // Ego scalars of one (slot, agent) pair, read by termination tests and the
  // steering law.
  struct AgentScalars {
    double y = 0.0;
    double heading = 0.0;
    double speed = 0.0;
    int lane = 0;
  };

  // Fixes the per-agent feature geometry. Must be called before set_count;
  // re-configuring with identical dims is a no-op.
  void configure(int num_learners, std::size_t hl_dim, std::size_t ll_dim,
                 int num_lanes);
  // Sets the number of slots for this tick (storage grows in place and is
  // reused across ticks). Resets every slot's meta to {reset=false,
  // active=true, track=nullptr}; feature rows keep their previous contents
  // until overwritten.
  void set_count(std::size_t count);

  std::size_t count() const { return count_; }
  int num_learners() const { return n_; }
  std::size_t hl_dim() const { return hl_dim_; }
  std::size_t ll_dim() const { return ll_dim_; }
  int num_lanes() const { return num_lanes_; }

  SlotMeta& slot(std::size_t s) { return metas_[s]; }
  const SlotMeta& slot(std::size_t s) const { return metas_[s]; }

  AgentScalars& scalars(std::size_t s, int k) { return scalars_[agent_index(s, k)]; }
  const AgentScalars& scalars(std::size_t s, int k) const {
    return scalars_[agent_index(s, k)];
  }

  double* hl_row(std::size_t s, int k) { return hl_.row_ptr(agent_index(s, k)); }
  const double* hl_row(std::size_t s, int k) const {
    return hl_.row_ptr(agent_index(s, k));
  }

  // Low-level observation of (slot, agent) relative to `reference_lane`.
  double* ll_row(std::size_t s, int k, int reference_lane);
  const double* ll_row(std::size_t s, int k, int reference_lane) const;

  // Extracts env `e` of `world` into slot `s` (configure must match the
  // world's dims), writing every row in place. `reset` marks the slot as a
  // fresh episode for the controller. `noise_rng` is the slot's stream: the
  // sensors' noise (the Table II shift) is drawn from it, per agent the
  // high-level row first and then the low-level rows in lane order; at zero
  // noise nothing is drawn.
  void set_slot_from_world(std::size_t s, const sim::BatchLaneWorld& world, int e,
                           bool reset, Rng* noise_rng);

 private:
  std::size_t agent_index(std::size_t s, int k) const {
    return s * static_cast<std::size_t>(n_) + static_cast<std::size_t>(k);
  }

  int n_ = 0;
  std::size_t hl_dim_ = 0;
  std::size_t ll_dim_ = 0;
  int num_lanes_ = 0;
  std::size_t count_ = 0;

  std::vector<SlotMeta> metas_;
  std::vector<AgentScalars> scalars_;
  nn::Matrix hl_;  // (count·n) × hl_dim
  nn::Matrix ll_;  // (count·n·num_lanes) × ll_dim
};

}  // namespace hero::rl
