// Stage-2 collection's step hook (paper Algorithm 1). HeroTrainer::train
// runs its episodes through rl::run_episodes, E lanes in lockstep with the
// trainer itself as the exploring controller, so every per-step network
// evaluation (opponent-model prediction, high-level actor softmax,
// skill-policy action) is one batch=E forward of the trainer's
// HeroActEngine (docs/BATCHING.md). Width 1 is one episode at a time.
//
// What this class adds to the loop is what only training needs. After each
// tick it reads the engine's selections and turns them into pending
// semi-MDP transitions (opened and closed where an option was selected),
// accumulates the step's discounted rewards into them, stages the opponent
// labels of the step from the post-step rows and keeps the prediction
// scoreboard. Experience is staged per lane and merged by the trainer in
// lane order, which IS canonical episode order, so no reordering step
// exists to get wrong.
//
// The hook reads the engine's selections and never touches the learner;
// all replay buffers are filled at merge time by HeroTrainer::train.
// The hook runs on the collecting thread: collection batches across lanes
// rather than threads. The updates after the merge are what fans out, one
// pool task per learner (docs/PARALLELISM.md §HERO).
#pragma once

#include <vector>

#include "hero/act_engine.h"
#include "rl/episode_runner.h"

namespace hero::core {

// One episode's staged experience, in the exact shapes the trainer's merge
// consumes. Its EpisodeStats come from the loop (rl::EpisodeLoop::on_episode).
struct BatchedEpisode {
  long switches = 0;
  long opp_total = 0;
  long opp_correct = 0;
  // Per agent: Δ ε-schedule position over this episode (its selections).
  std::vector<long> selections;
  // Per agent: semi-MDP transitions in store order (FIFO).
  std::vector<std::vector<OptionTransition>> high;
  // Per (agent k, opponent slot j) at index k·(n−1)+j: labels in step order.
  std::vector<std::vector<OpponentModel::Sample>> opp;
};

class BatchedRollout {
 public:
  // Takes the discount and the opponent-model ablation from `high`.
  explicit BatchedRollout(const HighLevelConfig& high)
      : gamma_(high.gamma), use_opponent_model_(high.use_opponent_model) {}

  // Folds one tick into the episodes of the lanes that stepped. `engine`
  // made the tick's act_rows call over tick.before with sessions[lane] for
  // lane `lane`. `observing` enables the opponent-prediction scoreboard
  // (metrics or telemetry on). A lane's episode is complete once its done
  // tick has been folded.
  void on_step(const rl::StepView& tick, const HeroActEngine& engine,
               const std::vector<HeroSession>& sessions, bool observing);

  // The episode of lane `lane`, readable until that lane's next episode
  // starts. Mutable so the merge can move the staged transitions out
  // instead of copying.
  BatchedEpisode& episode(std::size_t lane) { return episodes_[lane]; }

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
  // Turns the engine's selections in `lane` this tick into transitions: a
  // re-selection closes the pending one, every selection opens a new one.
  // `rows` is the tick's pre-step batch, `held` the options after the tick.
  void record_selections(std::size_t lane, const rl::ObsBatch& rows,
                         const HeroActEngine& engine, const std::vector<int>& held);
  // Stages the opponent labels implied by the obs row of (lane, k) and the
  // options held during the step just taken; scores the cached predictions.
  void stage_opp_labels(std::size_t lane, int k, const double* obs_row,
                        bool observing);
  // Stores (lane, k)'s pending transition, ending at `next_obs`.
  void close_pending(std::size_t lane, int k, const double* next_obs, bool done);

  double gamma_;
  bool use_opponent_model_;
  int n_ = 0;                // learners per env
  std::size_t hl_dim_ = 0;

  std::vector<BatchedEpisode> episodes_;   // lane-indexed
  std::vector<LaneAgent> lane_agents_;     // lane-major (la_index)
  std::vector<int> options_;               // lane-major: held during the last step
};

}  // namespace hero::core
