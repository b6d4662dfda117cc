// Decentralized high-level actor–critic over options with opponent
// conditioning (paper Sec. III-C).
//
//   critic  Q_h^i(s_h, o^i, o^{-i})  — input [s_h | onehot(o^i) | opp block]
//   actor   π_h^i(o^i | s_h, ô^{-i}) — input [s_h | opp block]
//
// The opponent block is a concatenation of per-opponent option
// distributions: the *actual* (one-hot) options during critic regression,
// and the opponent model's *predicted* distributions in the TD-target and
// the actor input — the paper feeds distribution values rather than
// samples. Transitions are semi-MDP: each covers the c steps an option ran,
// with discounted accumulated reward and a γ^c bootstrap.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "hero/opponent_model.h"
#include "nn/policy_heads.h"
#include "rl/replay_buffer.h"

namespace hero::core {

// TD-target bootstrap for the option-value function.
//  kMax       — SMDP Q-learning: y = R + γ^c·max_o' Q'(s', o', ô'). Off-policy
//               optimism lets the value of a manoeuvre propagate even while
//               the current actor still avoids it (the paper describes the
//               high-level critic as Q-learning stabilized by the opponent
//               model).
//  kExpected  — expected SARSA under the current actor: more conservative,
//               kept for ablation.
enum class Bootstrap { kMax, kExpected };

struct HighLevelConfig {
  double gamma = 0.95;
  double lr = 0.002;
  double tau = 0.01;
  double grad_clip = 10.0;
  double entropy_coef = 0.02;
  Bootstrap bootstrap = Bootstrap::kMax;
  std::size_t batch = 64;
  std::size_t buffer_capacity = 50000;
  std::size_t warmup_transitions = 200;
  std::vector<std::size_t> hidden = {32, 32};
  bool use_opponent_model = true;  // ablation: uniform prior when false
  // ε-greedy over options on top of categorical sampling.
  double eps_start = 0.5;
  double eps_end = 0.02;
  long eps_decay_selections = 6000;
};

// One semi-MDP transition of agent i.
struct OptionTransition {
  std::vector<double> obs;         // s_h at option start
  std::vector<double> opp_actual;  // others' options at start (one-hot block)
  int option;
  double reward;      // Σ_k γ^k r_{t+k} accumulated while the option ran
  double gamma_pow;   // γ^c
  std::vector<double> next_obs;
  bool done;
};

struct HighLevelUpdateStats {
  double critic_loss = 0.0;
  double actor_entropy = 0.0;
  double critic_grad_norm = 0.0;  // pre-clip global norms (telemetry)
  double actor_grad_norm = 0.0;
  bool updated = false;
};

class HighLevelAgent {
 public:
  HighLevelAgent(std::size_t obs_dim, int num_opponents, const HighLevelConfig& cfg,
                 Rng& rng);

  // Current policy distribution for one observation and opponent block
  // (the single-row form of option_probs_rows; analysis tools and tests).
  std::vector<double> option_probs(const std::vector<double>& obs,
                                   const std::vector<double>& opp_block);

  // Batched actor evaluation: row b of `in` is [s_h | opp block]; writes the
  // row-wise softmax policy into `probs` (HeroActEngine's selection stage).
  void option_probs_rows(const nn::Matrix& in, nn::Matrix& probs);

  // Option selection from a precomputed policy row of kNumOptions
  // probabilities: with `explore`, the ε-greedy-plus-categorical draw, at
  // ε-schedule position `selection_count` (including this selection);
  // without, the draw-free argmax (first maximum). HeroActEngine evaluates
  // the probabilities as one batched forward and then draws per stream.
  static int select_from_probs(const HighLevelConfig& cfg, const double* probs,
                               long selection_count, Rng& rng, bool explore);

  void store(OptionTransition t) { buffer_.add(std::move(t)); }
  std::size_t buffered() const { return buffer_.size(); }

  // One actor+critic gradient step; TD-targets query `opponents` on the
  // stored next observations (always the latest model, per the paper).
  // Below warm-up it draws nothing and returns {updated = false}. It is
  // draw() then apply(), like OpponentModel::update.
  HighLevelUpdateStats update(OpponentModel& opponents, Rng& rng);
  // True once the replay holds max(batch, warm-up) transitions.
  bool ready() const {
    return buffer_.ready(std::max(cfg_.batch, cfg_.warmup_transitions));
  }
  // Appends the minibatch's batch() indices to `out` when ready(); otherwise
  // draws nothing.
  void draw(Rng& rng, std::vector<std::size_t>& out) const;
  // The actor+critic step over batch() indices from draw(), made since the
  // last store(). Touches only this agent and `opponents`.
  HighLevelUpdateStats apply(OpponentModel& opponents, const std::size_t* idx);
  std::size_t batch() const { return cfg_.batch; }

  nn::Mlp& critic() { return critic_; }
  nn::CategoricalPolicy& actor() { return actor_; }
  // The ε-schedule position: option selections made in training so far.
  long selections() const { return selections_; }
  // Overwrites the ε-schedule position — the trainer's merge advances it by
  // each episode's selections (a training round explores from its start
  // position). Acting never moves it (HeroSession counts on its own).
  void set_selections(long n) { selections_ = n; }

 private:
  // Writes [obs | onehot(option) | opp_block] into a preallocated row.
  void critic_input_into(const std::vector<double>& obs, int option,
                         const double* opp_block, double* row) const;

  HighLevelConfig cfg_;
  std::size_t obs_dim_;
  std::size_t opp_dim_;

  nn::CategoricalPolicy actor_;
  nn::Mlp critic_, critic_target_;
  std::unique_ptr<nn::Adam> actor_opt_, critic_opt_;
  rl::ReplayBuffer<OptionTransition> buffer_;
  long selections_ = 0;

  // Update scratch, reused across update() calls (resized in place).
  nn::Matrix actor_in_, q_in_, cin_, target_m_, closs_grad_;
  nn::Matrix probs_, logp_, dlogits_, blocks_, obs_rows_;
  std::vector<double> targets_;
  std::vector<std::size_t> drawn_;
  std::vector<const OptionTransition*> batch_;
};

}  // namespace hero::core
