// Stage-2 collection (paper Algorithm 1): E episodes advance in lockstep
// through one BatchLaneWorld, and every per-step network evaluation —
// opponent-model prediction, high-level actor softmax, skill-policy action —
// runs as a single batch=E forward instead of E single-row dispatches
// (docs/BATCHING.md). HeroTrainer::train collects only through this class;
// width 1 is one episode at a time.
//
// Each lane (environment slot) runs the semi-MDP bookkeeping for its n
// agents: β_o termination tests, discounted reward accumulation into the
// pending option transition, and opponent labels every step. Draws come
// from the counter-based episode stream stream_rng(root, episode), so a run
// is bitwise reproducible for a fixed (seed, batch_envs) pair. Collected
// experience is staged per lane and merged by the trainer in lane order —
// which IS canonical episode order, so no reordering step exists to get
// wrong.
//
// The rollout only *reads* the learner's networks (actor, opponent
// predictors, frozen skills); all replay buffers are filled at merge time
// by HeroTrainer::train. Single-threaded by design: batching, not
// threading, is the throughput lever here (docs/PARALLELISM.md).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hero/hero_agent.h"
#include "rl/evaluation.h"
#include "runtime/batch_rollout.h"
#include "sim/batch_lane_world.h"
#include "sim/scenario.h"

namespace hero::core {

// One finished episode's staged experience, in the exact shapes the
// trainer's merge consumes.
struct BatchedEpisode {
  rl::EpisodeStats stats;
  long switches = 0;
  long opp_total = 0;
  long opp_correct = 0;
  // Per agent: Δ ε-schedule position over this episode.
  std::vector<long> selections;
  // Per agent: semi-MDP transitions in store order (FIFO).
  std::vector<std::vector<OptionTransition>> high;
  // Per (agent k, opponent slot j) at index k·(n−1)+j: labels in step order.
  std::vector<std::vector<OpponentModel::Sample>> opp;
};

class BatchedRollout {
 public:
  // Holds references to the learner's skill bank and agents; both must
  // outlive the rollout (HeroTrainer owns all three).
  BatchedRollout(const sim::Scenario& scenario, const HighLevelConfig& high,
                 const TerminationConfig& term, SkillBank& skills,
                 std::vector<std::unique_ptr<HeroAgent>>& agents, int num_envs);

  int num_envs() const { return E_; }

  // Runs episodes [first, first + count) to completion (count ≤ num_envs).
  // `observing` enables the opponent-prediction scoreboard (metrics or
  // telemetry on). Results are readable via episode(i) until the next round.
  void run_round(std::uint64_t root, std::size_t first, std::size_t count,
                 bool observing);

  // Episode `first + i` of the last round. Mutable so the merge can move the
  // staged transitions out instead of copying.
  BatchedEpisode& episode(std::size_t i) { return episodes_[i]; }

  // Synchronized batch steps executed by the last round — the trainer's
  // gradient-update clock: one update round per `update_every` *batch
  // steps*. One batch step advances every live lane, so at E lanes that is
  // ~E× fewer gradient rounds per environment step than at width 1
  // (standard vectorized-RL semantics).
  long round_batch_steps() const { return round_batch_steps_; }

  sim::BatchLaneWorld& world() { return world_; }

 private:
  // Per-(lane, agent) episode bookkeeping: the option being executed, the
  // pending semi-MDP transition it will close, and the opponent prediction
  // cached at its selection.
  struct LaneAgent {
    OptionExecution exec;
    bool has_pending = false;
    std::vector<double> pend_obs;
    std::vector<double> pend_opp_actual;
    int pend_option = 0;
    double pend_reward = 0.0;
    double pend_discount = 1.0;
    long selections = 0;             // local ε-schedule position
    std::vector<double> opp_cache;   // predicted block at last selection
  };

  std::size_t la_index(std::size_t lane, int k) const {
    return lane * static_cast<std::size_t>(n_) + static_cast<std::size_t>(k);
  }

  void begin_lane(std::size_t lane);
  void step_once(bool observing);
  // Stages the opponent labels implied by the obs row of (lane, k) and the
  // options currently on the board; scores the cached predictions.
  void stage_opp_labels(std::size_t lane, int k, const double* obs_row,
                        bool observing);
  void finish_lane(std::size_t lane, bool observing);

  sim::Scenario scenario_;
  HighLevelConfig high_cfg_;
  TerminationConfig term_;
  SkillBank& skills_;
  std::vector<std::unique_ptr<HeroAgent>>& agents_;
  int n_ = 0;  // learners per env
  int E_ = 0;

  sim::BatchLaneWorld world_;
  runtime::BatchRoundScheduler sched_;
  long round_batch_steps_ = 0;

  std::vector<BatchedEpisode> episodes_;   // lane-indexed
  std::vector<LaneAgent> lane_agents_;     // lane-major (la_index)
  std::vector<int> options_;               // lane-major current options
  std::vector<std::uint8_t> started_;      // per lane: initial selection done
  std::vector<std::uint8_t> needs_select_; // lane-major, per batch step
  std::vector<sim::TwistCmd> cmds_;        // lane-major learner commands
  sim::BatchStepResult step_out_;

  // Batched-forward staging (resized in place, reused across steps).
  nn::Matrix hl_obs_;                      // (E·n) × high_level_obs_dim
  std::vector<std::size_t> sel_lanes_;     // lanes selecting for one agent
  nn::Matrix sel_obs_, sel_blocks_, sel_in_, sel_probs_;
  std::vector<std::pair<std::size_t, int>> sk_rows_;  // (lane, k) per option
  nn::Matrix sk_obs_, sk_act_;
  std::vector<Rng*> sk_rngs_;
};

}  // namespace hero::core
