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

namespace hero::algos {

struct ComaConfig : TrainConfig {
  double entropy_coef = 0.01;
  double critic_lr_scale = 2.0;  // critic learns faster than the actors
};

class ComaTrainer : public rl::Controller {
 public:
  ComaTrainer(const sim::Scenario& scenario, const ComaConfig& cfg, Rng& rng);

  // Runs `episodes` training episodes through the episode runner; each
  // episode's on-policy update runs when it is reported, before `hook`.
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
  // One time-step of on-policy experience for the whole team.
  struct StepRecord {
    std::vector<std::vector<double>> obs;  // per agent (local)
    std::vector<std::size_t> actions;      // per agent
    double reward;                         // shared team reward
  };

  // Critic input for agent i at one step: [every agent's obs, in order |
  // onehot(i) | onehot actions of the other agents], written into a
  // preallocated matrix row.
  void critic_input_into(const StepRecord& rec, int agent, double* row) const;
  void update_from_episode(const std::vector<StepRecord>& episode);
  // Step hook: appends each stepped lane's StepRecord to its episode.
  void record_step(const rl::StepView& tick);

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
  // On-policy experience of the episodes in flight, one per lane.
  std::vector<std::vector<StepRecord>> episodes_;
};

}  // namespace hero::algos
