// COMA baseline (Foerster et al. 2018): counterfactual multi-agent policy
// gradients. On-policy actors with a centralized critic that outputs
// Q(s, ·) over agent i's discrete actions given the other agents' actions;
// the counterfactual baseline b = Σ_a π_i(a|o_i) Q(s, a) marginalizes out
// agent i for per-agent credit assignment (paper Sec. V-A).
#pragma once

#include <memory>
#include <vector>

#include "algos/common.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/policy_heads.h"
#include "rl/discretizer.h"
#include "runtime/thread_pool.h"

namespace hero::algos {

struct ComaConfig : TrainConfig {
  double entropy_coef = 0.01;
  double critic_lr_scale = 2.0;  // critic learns faster than the actors
};

class ComaTrainer : public rl::Controller {
 public:
  ComaTrainer(const sim::Scenario& scenario, const ComaConfig& cfg, Rng& rng);

  void train(int episodes, Rng& rng, const EpisodeHook& hook = {});

  // rl::Controller (greedy when explore == false): one actor forward per
  // agent over all active slots; explore-mode categorical draws come from
  // each slot's own stream, agents in order, so one call over many slots is
  // bitwise-identical to one width-1 call (act()) per slot in both modes
  // (BaselineServing.ActRowsMatchPerSlotAct in test_serve.cpp).
  void act_rows_into(const rl::ObsBatch& batch, Rng* const* rngs, bool explore,
                     sim::TwistCmd* cmds_out) override;

  sim::LaneWorld& world() { return world_; }

 private:
  // act_rows_into body (the _into method stays allocation-free; scratch
  // grows here on batch-shape changes only).
  void batched_act(const rl::ObsBatch& batch, Rng* const* rngs, bool explore,
                   sim::TwistCmd* cmds_out);
  // One time-step of on-policy experience for the whole team.
  struct StepRecord {
    std::vector<std::vector<double>> obs;  // per agent (local)
    std::vector<double> joint_obs;         // concatenated
    std::vector<std::size_t> actions;      // per agent
    double reward;                         // shared team reward
  };

  // Critic input for agent i at one step: [joint_obs | onehot(i) | onehot
  // actions of the other agents], written into a preallocated matrix row.
  void critic_input_into(const StepRecord& rec, int agent, double* row) const;
  void update_from_episode(const std::vector<StepRecord>& episode, Rng& rng);
  // Runs fn(t) for t in [0, n) — on the pool when num_workers > 1. Used for
  // the per-timestep batch-assembly loops (index-addressed row writes, so
  // results are bitwise identical at any worker count). The gradient chain
  // itself stays serial: COMA's critic is one shared network whose steps are
  // interleaved with the per-agent actor updates.
  void for_rows(std::size_t n, const std::function<void(std::size_t)>& fn);

  sim::Scenario scenario_;
  ComaConfig cfg_;
  sim::LaneWorld world_;
  rl::ActionGrid grid_;
  int n_;
  std::size_t obs_dim_;

  std::vector<nn::CategoricalPolicy> actors_;
  std::vector<std::unique_ptr<nn::Adam>> actor_opt_;
  nn::Mlp critic_, critic_target_;
  std::unique_ptr<nn::Adam> critic_opt_;

  // Update scratch, reused across episodes (resized in place).
  nn::Matrix critic_in_m_, obs_m_, dlogits_, probs_, logp_, closs_grad_;
  std::vector<std::size_t> act_slots_;   // act_rows scratch: active slot list
  nn::Matrix act_obs_, act_probs_;       // act_rows scratch
  std::vector<double> returns_;
  std::vector<std::size_t> taken_;
  std::unique_ptr<runtime::ThreadPool> pool_;  // null while num_workers <= 1
};

}  // namespace hero::algos
