// Independent Deep Q-learning baseline (paper Sec. V-A).
//
// Each agent trains its own Q-network from its local observation and the
// shared team reward; there is no coordination signal beyond that reward —
// the canonical DTDE lower bound. Actions come from the discretized
// primitive grid (rl::ActionGrid).
#pragma once

#include <memory>
#include <vector>

#include "algos/common.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "rl/discretizer.h"
#include "rl/prioritized_replay.h"
#include "rl/replay_buffer.h"
#include "runtime/thread_pool.h"

namespace hero::algos {

struct DqnConfig : TrainConfig {
  // Worker threads for the update phase (runtime::ThreadPool). Batches are
  // drawn serially in agent order before the per-agent gradient math fans
  // out, and workers write only agent-indexed state, so results are
  // bitwise identical to num_workers == 1 at any worker count
  // (docs/PARALLELISM.md §Baselines). Prioritized replay stays serial.
  int num_workers = 1;

  // Prioritized experience replay (Schaul et al. 2016); β anneals linearly
  // from per_beta0 to 1 over per_beta_steps gradient updates.
  bool prioritized = false;
  double per_alpha = 0.6;
  double per_beta0 = 0.4;
  long per_beta_steps = 20000;
};

class IndependentDqnTrainer : public rl::Controller {
 public:
  IndependentDqnTrainer(const sim::Scenario& scenario, const DqnConfig& cfg, Rng& rng);

  // Runs `episodes` training episodes (exploring, learning) through the
  // episode runner; invokes `hook` with the stats of every episode.
  void train(int episodes, Rng& rng, const EpisodeHook& hook = {});

  // rl::Controller (greedy when explore == false): one Q forward per agent
  // over all active slots instead of one per (slot, agent). Per-slot ε draws
  // come from that slot's own stream, agents in order, so one call over many
  // slots is bitwise-identical to one width-1 call (act()) per slot in both
  // modes (BaselineServing.ActRowsMatchPerSlotAct in test_serve.cpp).
  void act_rows_into(const rl::ObsBatch& batch, Rng* const* rngs, bool explore,
                     sim::TwistCmd* cmds_out) override;

  sim::LaneWorld& world() { return world_; }
  const sim::Scenario& scenario() const { return scenario_; }
  long total_steps() const { return total_steps_; }

 private:
  struct Transition {
    std::vector<double> obs;
    std::size_t action;
    double reward;
    std::vector<double> next_obs;
    bool done;
  };

  // Per-agent update scratch: one block per agent so the gradient math of
  // independent agents can run on pool workers without sharing matrices.
  struct UpdateScratch {
    nn::Matrix obs_m, next_m, loss_grad;
    std::vector<double> targets, td;
    std::vector<std::size_t> actions;
  };

  double update_agent(int agent, Rng& rng);
  // The gradient step on agent's Q-net for an already-sampled batch — no RNG,
  // touches only agent-indexed state, so it can run on a pool worker.
  double update_math(int agent, const std::vector<const Transition*>& batch,
                     const std::vector<double>* weights, UpdateScratch& s,
                     std::vector<double>* out_td);
  // One update across all agents: serial per agent by default; with
  // num_workers > 1 and uniform replay, batches are drawn serially in agent
  // order and the math fans out (bitwise-identical results either way).
  void update_round(Rng& rng);
  // Step hook: stores the tick's transitions lane-ascending, then
  // agent-ascending, and runs the update clock (one tick = one batch step).
  void store_and_update(const rl::StepView& tick, Rng& rng);

  sim::Scenario scenario_;
  DqnConfig cfg_;
  sim::LaneWorld world_;
  rl::ActionGrid grid_;

  std::vector<nn::Mlp> q_;
  std::vector<nn::Mlp> q_target_;
  std::vector<std::unique_ptr<nn::Adam>> opt_;
  std::vector<rl::ReplayBuffer<Transition>> buffers_;
  std::vector<rl::PrioritizedReplayBuffer<Transition>> per_buffers_;
  long total_steps_ = 0;
  long updates_ = 0;

  std::vector<UpdateScratch> scratch_;  // one per agent
  std::vector<std::size_t> act_slots_;  // act_rows scratch: active slot list
  nn::Matrix act_obs_;                  // act_rows scratch: gathered obs rows
  std::vector<std::vector<const Transition*>> sampled_;  // parallel round staging
  std::unique_ptr<runtime::ThreadPool> pool_;  // null while num_workers <= 1
};

}  // namespace hero::algos
