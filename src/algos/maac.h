// MAAC baseline (Iqbal & Sha 2019): multi-actor-attention-critic.
//
// Discrete soft actor–critic with a shared attention critic
// (algos/attention_critic.h) and a shared actor (agent-id one-hot appended
// to the observation — the parameter sharing the paper highlights).
// Off-policy with experience replay, like the original.
#pragma once

#include <memory>
#include <vector>

#include "algos/attention_critic.h"
#include "algos/common.h"
#include "nn/optimizer.h"
#include "nn/policy_heads.h"
#include "rl/discretizer.h"
#include "rl/replay_buffer.h"

namespace hero::algos {

struct MaacConfig : TrainConfig {
  MaacConfig() { update_every = 4; }  // the attention critic is ~4× a plain MLP

  double alpha = 0.05;        // entropy temperature
  std::size_t embed_dim = 32;
};

class MaacTrainer : public rl::Controller {
 public:
  MaacTrainer(const sim::Scenario& scenario, const MaacConfig& cfg, Rng& rng);

  // Runs `episodes` training episodes through the episode runner; invokes
  // `hook` with the stats of every episode.
  void train(int episodes, Rng& rng, const EpisodeHook& hook = {});

  // rl::Controller (greedy when explore == false): one shared-actor forward
  // per agent over all active slots (the agent-id one-hot differs per agent,
  // so rows batch across slots, not agents); explore-mode draws come from
  // each slot's own stream, agents in order, so one call over many slots is
  // bitwise-identical to one width-1 call (act()) per slot in both modes
  // (BaselineServing.ActRowsMatchPerSlotAct in test_serve.cpp).
  void act_rows_into(const rl::ObsBatch& batch, Rng* const* rngs, bool explore,
                     sim::TwistCmd* cmds_out) override;

  sim::LaneWorld& world() { return world_; }

 private:
  struct Transition {
    std::vector<std::vector<double>> obs;
    std::vector<std::size_t> actions;
    std::vector<double> rewards;
    std::vector<std::vector<double>> next_obs;
    bool done;
  };

  void update(Rng& rng);
  // Step hook: stores each stepped lane's joint transition and runs the
  // update clock.
  void store_and_update(const rl::StepView& tick, Rng& rng);

  sim::Scenario scenario_;
  MaacConfig cfg_;
  sim::LaneWorld world_;
  rl::ActionGrid grid_;
  int n_;
  std::size_t obs_dim_;

  nn::CategoricalPolicy actor_;  // shared across agents
  std::unique_ptr<nn::Adam> actor_opt_;
  std::unique_ptr<AttentionCritic> critic_, critic_target_;
  std::unique_ptr<nn::Adam> critic_opt_;
  rl::ReplayBuffer<Transition> buffer_;
  long total_steps_ = 0;

  // Update scratch, reused across update() calls (resized in place).
  std::vector<std::vector<std::size_t>> next_actions_;
  std::vector<std::vector<double>> next_logp_;
  nn::Matrix actor_in_;            // (B, obs + n) shared-actor input
  nn::Matrix own_m_;               // (B, obs) focal-agent observations
  nn::Matrix others_m_;            // (m·B, obs + |A|) other-agent (s,a) rows
  nn::Matrix probs_, logp_, dlogits_;
  nn::Matrix crit_grad_;           // dL/dQ for the critic update
  AttentionCritic::Pass pass_, tgt_pass_;
  std::vector<std::size_t> act_slots_;   // act_rows scratch: active slot list
  nn::Matrix act_gather_, act_in_rows_, act_probs_;  // act_rows scratch
  std::vector<double> y_;
  std::vector<std::size_t> taken_;
};

}  // namespace hero::algos
