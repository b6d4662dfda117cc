// The deployment-time interface every method (HERO and all baselines)
// implements: map the current world state to one twist command per learning
// vehicle. A single evaluation harness (rl/evaluation.h) then scores any
// method identically — this is what the Fig. 7/11 and Table II benches use.
//
// One action entry point, act_rows_into(): many environment slots in one
// ObsBatch, one fused pass. The one episode loop (rl/episode_runner.h: every
// method's training and both evaluations) and the policy server (src/serve)
// call it directly, and HERO and all four
// baselines implement it with genuinely batched network evaluation, so
// cross-slot batching costs one forward per network instead of one per slot.
// act() is its batch of one, just as sim::LaneWorld is a one-env view of
// sim::BatchLaneWorld: it extracts the live world into a one-slot ObsBatch
// and makes one act_rows_into call, so a scalar path and a batched path
// cannot drift apart.
#pragma once

#include <vector>

#include "common/rng.h"
#include "rl/obs_batch.h"
#include "sim/lane_world.h"

namespace hero::rl {

class Controller {
 public:
  virtual ~Controller() = default;

  // Call once per episode, right after world.reset(): the next act() marks
  // its slot as a fresh episode (ObsBatch::SlotMeta::reset), so controllers
  // with per-episode state (HERO's option executions) start over.
  void begin_episode() { reset_next_ = true; }

  // One command per learner, in world.learners() order: act_rows_into over a
  // one-slot batch extracted from `world`. `rng` is that slot's stream, for
  // the sensors' noise and (with `explore`) the controller's draws.
  std::vector<sim::TwistCmd> act(const sim::LaneWorld& world, Rng& rng, bool explore);

  // Batch-first action selection over `batch.count()` environment slots.
  //
  // Contract:
  //   * `cmds_out` holds batch.count() · batch.num_learners() commands,
  //     slot-major: slot s's learner k lands at s·n + k. Inactive slots
  //     (slot(s).active == false) are skipped and their commands left
  //     untouched.
  //   * `rngs[s]` is slot s's draw stream; with explore == false no
  //     controller in this repo draws from it (greedy selection is
  //     draw-free), which is what makes served answers bitwise-reproducible
  //     under any batching (docs/SERVING.md).
  //   * Slot indices are session identities: controllers that carry
  //     per-episode state (HERO's option executions) key it by slot, and
  //     slot(s).reset marks the start of a fresh episode for that slot.
  virtual void act_rows_into(const ObsBatch& batch, Rng* const* rngs, bool explore,
                             sim::TwistCmd* cmds_out) = 0;

 private:
  ObsBatch one_;  // act()'s one-slot batch, reused across calls
  bool reset_next_ = true;
};

}  // namespace hero::rl
