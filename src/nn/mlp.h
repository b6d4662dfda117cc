// Multi-layer perceptron: the workhorse network of every policy and critic
// in this reproduction (the paper uses hidden width 32 throughout).
//
// The network owns a reusable Workspace: one activation buffer per layer
// boundary plus matching gradient buffers. forward()/backward() return
// references INTO that workspace — valid until the next forward()/backward()
// on the same network. Copy the result if you need it to survive another
// pass (assigning to a `Matrix` value does exactly that). With stable batch
// shapes, steady-state forward/backward perform zero heap allocations (see
// docs/PERFORMANCE.md for the full contract).
#pragma once

#include <memory>
#include <vector>

#include "nn/activation.h"
#include "nn/linear.h"

namespace hero::nn {

class Mlp {
 public:
  Mlp() = default;

  // Builds in -> hidden[0] -> ... -> hidden[n-1] -> out with `act` between
  // linear layers and `out_act` after the last one.
  Mlp(std::size_t in, const std::vector<std::size_t>& hidden, std::size_t out, Rng& rng,
      Activation act = Activation::kReLU, Activation out_act = Activation::kIdentity);

  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other);
  Mlp(Mlp&&) = default;
  Mlp& operator=(Mlp&&) = default;

  // Forward pass for a (batch, in) matrix. Returns the output activation in
  // the workspace (invalidated by the next forward on this network).
  const Matrix& forward(const Matrix& x);
  // Convenience single-sample forward.
  std::vector<double> forward1(const std::vector<double>& x);

  // Backpropagates dL/d(output); accumulates parameter grads, returns
  // dL/d(input) — callers use the input gradient to chain through
  // concatenated inputs (e.g. dQ/da for deterministic policy gradients).
  // The returned reference lives in the workspace (invalidated by the next
  // backward on this network). Requires the matching forward() to have run.
  const Matrix& backward(const Matrix& grad_out);

  // Like backward, but computes no dL/d(input) — for callers that only step
  // the network's own parameters. Accumulates the same parameter gradients,
  // bit for bit, and skips the first layer's dy·Wᵀ product.
  void backward_params(const Matrix& grad_out);

  // Like backward, but computes only dL/d(input) and leaves parameter
  // gradients untouched — for differentiating through a frozen network
  // (e.g. dQ/da through the critics in an actor update). Roughly a third
  // cheaper than backward + discarding the grads.
  const Matrix& backward_input(const Matrix& grad_out);

  // Flat parameter list; built once and cached (pointer-stable: layers are
  // held by unique_ptr, so Matrix addresses survive moves of the Mlp).
  const std::vector<ParamRef>& params();
  void zero_grad();

  // Polyak averaging: θ ← τ·θ_src + (1−τ)·θ (target-network update).
  void soft_update_from(Mlp& src, double tau);
  // Hard copy of all parameters (architectures must match).
  void copy_params_from(Mlp& src);

  // Global-norm gradient clipping; returns the pre-clip norm.
  double clip_grad_norm(double max_norm);

  std::size_t in_dim() const;
  std::size_t out_dim() const;
  std::size_t num_params() const;
  // Linear-layer widths in order: {in, hidden..., out}. The architecture
  // fingerprint recorded in checkpoint manifests (hero/checkpoint.h).
  std::vector<std::size_t> layer_dims() const;
  bool empty() const { return layers_.empty(); }

 private:
  // Shared body of backward and backward_params: every layer's backward,
  // the first one's with or without its input gradient.
  void backward_layers(const Matrix& grad_out, bool input_grad);

  std::vector<std::unique_ptr<Layer>> layers_;

  // Workspace: acts_[0] holds the (copied) input, acts_[i+1] the output of
  // layer i; grads_ mirrors acts_ with dL/d(activation). All buffers are
  // resized in place, so capacity is reused across iterations.
  std::vector<Matrix> acts_;
  std::vector<Matrix> grads_;
  Matrix in_row_;  // forward1 scratch

  std::vector<ParamRef> param_cache_;
};

}  // namespace hero::nn
