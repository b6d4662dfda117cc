// Policy parameterizations on top of Mlp.
//
//  * CategoricalPolicy — discrete actor (HERO high-level layer, COMA actor,
//    opponent-model predictor).
//  * SquashedGaussianPolicy — tanh-squashed diagonal Gaussian with the
//    reparameterization trick (SAC low-level skills). Gradients through the
//    sample and through log π are derived analytically; tests finite-
//    difference-check them.
//  * DeterministicTanhPolicy — DDPG/MADDPG actor, a = c + s·tanh(f(x)).
//
// Hot-path contract: sample_into / forward reuse caller- or policy-owned
// buffers, and backward() accumulates into the trunk's gradients in its
// workspace — zero steady-state allocations end to end.
#pragma once

#include <optional>
#include <vector>

#include "nn/losses.h"
#include "nn/mlp.h"

namespace hero::nn {

// ---------------------------------------------------------------------------

class CategoricalPolicy {
 public:
  CategoricalPolicy() = default;
  CategoricalPolicy(std::size_t in, const std::vector<std::size_t>& hidden,
                    std::size_t num_actions, Rng& rng);

  std::size_t num_actions() const { return net_.out_dim(); }

  // Action probabilities for a single observation.
  std::vector<double> probs1(const std::vector<double>& obs);
  // Samples an action; `greedy` takes the argmax instead.
  std::size_t act(const std::vector<double>& obs, Rng& rng, bool greedy = false);

  Mlp& net() { return net_; }

 private:
  Mlp net_;
};

// ---------------------------------------------------------------------------

class SquashedGaussianPolicy {
 public:
  // Everything backward() needs to route gradients, captured at sample time.
  struct Sample {
    Matrix actions;   // (batch, k), already scaled into [lo, hi]
    std::vector<double> log_prob;  // per row
    // caches
    Matrix eps;      // standard-normal draws
    Matrix t;        // tanh(pre-squash)
    Matrix std;      // exp(clamped log-std)
    Matrix dls_draw; // d(clamped logstd)/d(raw logstd) per element
  };

  SquashedGaussianPolicy() = default;
  SquashedGaussianPolicy(std::size_t obs_dim, const std::vector<std::size_t>& hidden,
                         std::vector<double> lo, std::vector<double> hi, Rng& rng);

  std::size_t action_dim() const { return lo_.size(); }

  // Reparameterized sample; deterministic=true returns the squashed mean
  // (evaluation mode). The `_into` form resizes `s` in place so a reused
  // Sample allocates nothing at steady state.
  void sample_into(const Matrix& obs, Rng& rng, bool deterministic, Sample& s);
  Sample sample(const Matrix& obs, Rng& rng, bool deterministic = false);
  std::vector<double> act1(const std::vector<double>& obs, Rng& rng,
                           bool deterministic = false);

  // Batched rollout sampling: one trunk forward over all rows, one RNG
  // stream per row — row i draws its normals from rngs[i] in dimension
  // order, exactly like act1 with that stream, so per-env action draws are
  // independent of the batch composition (docs/BATCHING.md). Writes only
  // the squashed actions (no backward caches, no log-prob).
  void act_rows_into(const Matrix& obs, Rng* const* rngs, bool deterministic,
                     Matrix& actions);

  // Backprop given dL/d(action) (batch, k) and dL/d(log_prob) (batch).
  // Accumulates trunk parameter gradients (no dL/d(obs): no caller needs it).
  void backward(const Sample& s, const Matrix& dL_da,
                const std::vector<double>& dL_dlogp);

  Mlp& net() { return trunk_; }
  const std::vector<double>& lo() const { return lo_; }
  const std::vector<double>& hi() const { return hi_; }

 private:
  Mlp trunk_;  // outputs [mean | raw_logstd], width 2k
  std::vector<double> lo_, hi_;
  Matrix obs_row_;    // act1 scratch
  Matrix grad_out_;   // backward scratch (batch, 2k)
};

// ---------------------------------------------------------------------------

class DeterministicTanhPolicy {
 public:
  DeterministicTanhPolicy() = default;
  DeterministicTanhPolicy(std::size_t obs_dim, const std::vector<std::size_t>& hidden,
                          std::vector<double> lo, std::vector<double> hi, Rng& rng);

  std::size_t action_dim() const { return lo_.size(); }

  // a = center + scale * tanh(f(obs)). Returns a reference to an internal
  // buffer (invalidated by the next forward on this policy).
  const Matrix& forward(const Matrix& obs);
  std::vector<double> act1(const std::vector<double>& obs);

  // Backprop dL/d(action); accumulates trunk parameter gradients.
  void backward(const Matrix& dL_da);

  Mlp& net() { return trunk_; }
  const std::vector<double>& lo() const { return lo_; }
  const std::vector<double>& hi() const { return hi_; }

 private:
  Mlp trunk_;  // ends in Tanh
  std::vector<double> lo_, hi_;
  Matrix obs_row_;  // act1 scratch
  Matrix action_;   // forward output buffer
  Matrix grad_;     // backward scratch
};

}  // namespace hero::nn
