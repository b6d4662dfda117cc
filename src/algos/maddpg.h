// MADDPG baseline (Lowe et al. 2017): centralized training with
// decentralized execution. Each agent has a deterministic actor over its
// local observation and a centralized critic over the joint observation and
// joint action (paper Sec. V-A).
#pragma once

#include <memory>
#include <vector>

#include "algos/common.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/policy_heads.h"
#include "rl/replay_buffer.h"
#include "runtime/thread_pool.h"

namespace hero::algos {

struct MaddpgConfig : TrainConfig {
  // Worker threads for the per-agent update phase (runtime::ThreadPool).
  // The one minibatch is drawn before the fan-out and each agent's critic
  // and actor step writes only agent-indexed state, so results are bitwise
  // identical to num_workers == 1 at any worker count
  // (docs/PARALLELISM.md §Baselines).
  int num_workers = 1;
};

class MaddpgTrainer : public rl::Controller {
 public:
  MaddpgTrainer(const sim::Scenario& scenario, const MaddpgConfig& cfg, Rng& rng);

  // Runs `episodes` training episodes through the episode runner; invokes
  // `hook` with the stats of every episode.
  void train(int episodes, Rng& rng, const EpisodeHook& hook = {});

  // rl::Controller (greedy when explore == false): one actor forward per
  // agent over all active slots; exploration noise comes from each slot's
  // own stream, agents in order, so one call over many slots is
  // bitwise-identical to one width-1 call (act()) per slot in both modes
  // (BaselineServing.ActRowsMatchPerSlotAct in test_serve.cpp).
  void act_rows_into(const rl::ObsBatch& batch, Rng* const* rngs, bool explore,
                     sim::TwistCmd* cmds_out) override;

  sim::LaneWorld& world() { return world_; }

 private:
  struct Transition {
    std::vector<std::vector<double>> obs;      // per agent
    std::vector<std::vector<double>> actions;  // per agent
    std::vector<double> rewards;               // per agent
    std::vector<std::vector<double>> next_obs;
    bool done;
  };

  // Per-agent update scratch: agent i's critic/actor phase only touches
  // block i, so the per-agent loop can fan out onto pool workers.
  struct AgentScratch {
    nn::Matrix obs_j;  // agent's observation batch
    nn::Matrix target, q_grad, dq, da, mixed_in;
  };

  // Agent i's critic regression + actor ascent + target soft updates for an
  // already-assembled joint batch. No RNG; reads only the shared read-only
  // joint matrices and writes agent-indexed state.
  void update_agent(int i, const std::vector<const Transition*>& batch);
  void update(Rng& rng);
  // Step hook: stores each stepped lane's joint transition (the executed
  // commands as actions) and runs the update clock.
  void store_and_update(const rl::StepView& tick, Rng& rng);
  // Runs fn(i) for every agent — on the pool when num_workers > 1
  // (bitwise-identical results either way; see MaddpgConfig::num_workers).
  void for_agents(const std::function<void(std::size_t)>& fn);

  sim::Scenario scenario_;
  MaddpgConfig cfg_;
  sim::LaneWorld world_;
  int n_;
  std::size_t obs_dim_;
  std::size_t act_dim_;

  std::vector<nn::DeterministicTanhPolicy> actors_, actor_targets_;
  std::vector<nn::Mlp> critics_, critic_targets_;
  std::vector<std::unique_ptr<nn::Adam>> actor_opt_, critic_opt_;
  rl::ReplayBuffer<Transition> buffer_;
  long total_steps_ = 0;

  // Update scratch, reused across update() calls (resized in place).
  // The joint matrices are assembled once per update and read-only during
  // the per-agent phase.
  nn::Matrix joint_obs_, joint_next_obs_, joint_act_, joint_next_act_;
  nn::Matrix next_in_, cur_in_;
  std::vector<AgentScratch> scratch_;  // one per agent
  std::vector<std::size_t> act_slots_;  // act_rows scratch: active slot list
  nn::Matrix act_obs_;                  // act_rows scratch: gathered obs rows
  std::unique_ptr<runtime::ThreadPool> pool_;  // null while num_workers <= 1
};

}  // namespace hero::algos
