// HeroActEngine: the one action path of the HERO policy (docs/SERVING.md,
// docs/BATCHING.md). Stage-2 training and in-process evaluation (both
// through HeroTrainer::act_rows_into, with Controller::act its batch of one)
// and the policy server all act through it; no other code terminates,
// selects or executes HERO options.
//
// One act_rows() call advances every active slot of an rl::ObsBatch by one
// control tick with three batched network stages:
//
//   1. β_o termination per (slot, agent) from the ego scalars;
//   2. option selection, agent-major: for agent k, every slot re-selecting
//      shares one opponent-model predict_all_rows and one actor
//      option_probs_rows forward; the ε/categorical draws (explore only)
//      then come from each slot's own stream, slots ascending, so the chosen
//      options are independent of which other slots happened to share the
//      batch;
//   3. skill actions, option-major: one SquashedGaussianPolicy act_rows_into
//      per learned option over every (slot, agent) currently holding it,
//      (slot, agent) ascending, then the pure steering-law core
//      (SkillBank::to_twist_core).
//
// Greedy mode (explore == false) draws nothing anywhere — argmax option
// selection plus deterministic skill means — which is what makes a served
// batch bitwise-equal to serving each request alone (ServeEquivalence tests).
//
// The engine owns only scratch and what the last call selected; the model
// (skill bank + agents) and the per-slot session state are passed per call,
// so a checkpoint hot-reload can swap the model under the engine without
// touching in-flight sessions. Stage 2's step hook (BatchedRollout) reads the
// selections back (selected(), opp_block()) to build its semi-MDP
// transitions.
#pragma once

#include <memory>
#include <vector>

#include "hero/hero_agent.h"
#include "hero/skills.h"
#include "rl/obs_batch.h"

namespace hero::core {

// Per-slot session state: the option bookkeeping of one episode. Owned by
// the caller — HeroTrainer keys them by slot for training and evaluation,
// the policy server keys them by client session.
struct HeroSession {
  struct AgentState {
    OptionExecution exec;
    // Local ε-schedule position (explore mode): starts at the learner's
    // selections() and never writes back, so acting leaves the learner's
    // schedule where training put it.
    long selections = 0;
  };
  bool started = false;
  std::vector<AgentState> agents;
  std::vector<int> options;  // option currently held per agent

  // Drops all option state; the next act_rows() performs the initial
  // selection for every agent (begin-episode semantics).
  void reset() {
    started = false;
    agents.clear();
    options.clear();
  }
};

class HeroActEngine {
 public:
  // One fused deployment tick over batch.count() slots. sessions[s] and
  // rngs[s] belong to slot s; inactive slots are skipped. Commands land
  // slot-major in cmds_out (slot s, agent k → s·n + k), exactly like
  // Controller::act_rows_into.
  void act_rows(SkillBank& skills, std::vector<std::unique_ptr<HeroAgent>>& agents,
                const HighLevelConfig& high, const TerminationConfig& term,
                const rl::ObsBatch& batch, HeroSession* const* sessions,
                Rng* const* rngs, bool explore, sim::TwistCmd* cmds_out);

  // What the last act_rows() call selected. selected(s, k): whether agent k
  // of slot s took an option this tick — its session's initial selection
  // or a β_o re-selection. opp_block(s, k): the (n−1)·kNumOptions opponent
  // block ô^{-k} that selection conditioned on (the opponent model's
  // prediction, or the uniform prior under the ablation); valid only where
  // selected(s, k).
  bool selected(std::size_t s, int k) const { return needs_select_[idx(s, k)] != 0; }
  const double* opp_block(std::size_t s, int k) const {
    return blocks_.row_ptr(idx(s, k));
  }

 private:
  std::size_t idx(std::size_t s, int k) const {
    return s * static_cast<std::size_t>(n_) + static_cast<std::size_t>(k);
  }

  int n_ = 0;  // learners of the last call's batch
  std::vector<std::uint8_t> needs_select_;  // (slot·n): selected this tick
  nn::Matrix blocks_;                       // (slot·n) × opp dim, see opp_block()

  // Scratch, resized in place and reused across calls.
  std::vector<std::size_t> sel_slots_;            // slots selecting for one agent
  nn::Matrix sel_obs_, sel_blocks_, sel_in_, sel_probs_;
  std::vector<std::pair<std::size_t, int>> sk_rows_;  // (slot, k) per option
  nn::Matrix sk_obs_, sk_act_;
  std::vector<Rng*> sk_rngs_;
};

}  // namespace hero::core
