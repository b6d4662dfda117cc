// Stage-2 collection (paper Algorithm 1): E episodes advance in lockstep
// through one BatchLaneWorld, and every per-step network evaluation —
// opponent-model prediction, high-level actor softmax, skill-policy action —
// runs as a single batch=E forward instead of E single-row dispatches
// (docs/BATCHING.md). HeroTrainer::train collects only through this class;
// width 1 is one episode at a time.
//
// Each step extracts every live lane into one rl::ObsBatch slot and acts
// through HeroActEngine with explore on — the same action path evaluation
// and serving use — with one HeroSession per lane. What the rollout adds is
// what only training needs: the pending semi-MDP transitions (opened and
// closed where the engine selected), discounted reward accumulation, the
// opponent labels of every step and the prediction scoreboard. Draws come
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

#include "hero/act_engine.h"
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

 private:
  // Per-(lane, agent) training bookkeeping: the pending semi-MDP transition
  // the agent's current option will close, and the opponent block that
  // option's selection conditioned on (scored against every step's labels
  // while the option runs).
  struct LaneAgent {
    bool has_pending = false;
    std::vector<double> pend_obs;
    std::vector<double> pend_opp_actual;
    int pend_option = 0;
    double pend_reward = 0.0;
    double pend_discount = 1.0;
    std::vector<double> opp_cache;
  };

  std::size_t la_index(std::size_t lane, int k) const {
    return lane * static_cast<std::size_t>(n_) + static_cast<std::size_t>(k);
  }

  void begin_lane(std::size_t lane);
  void step_once(bool observing);
  // Stages the opponent labels implied by the obs row of (lane, k) and the
  // options held during the step just taken; scores the cached predictions.
  void stage_opp_labels(std::size_t lane, int k, const double* obs_row,
                        bool observing);
  // Turns the engine's selections in `lane` this tick into transitions: a
  // re-selection closes the pending one, every selection opens a new one.
  void record_selections(std::size_t lane);
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

  HeroActEngine engine_;
  rl::ObsBatch batch_;                     // slot = lane
  std::vector<HeroSession> sessions_;      // per lane
  std::vector<HeroSession*> session_ptrs_;

  std::vector<BatchedEpisode> episodes_;   // lane-indexed
  std::vector<LaneAgent> lane_agents_;     // lane-major (la_index)
  std::vector<int> options_;               // lane-major: held during the last step
  std::vector<sim::TwistCmd> cmds_;        // lane-major learner commands
  sim::BatchStepResult step_out_;
};

}  // namespace hero::core
