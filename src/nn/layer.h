// Layer abstraction: explicit forward / backward over caller-owned buffers.
//
// The library deliberately avoids a tape-based autograd — the paper's models
// are short feed-forward stacks and the explicit form keeps every gradient
// auditable (tests/nn finite-difference-checks each layer).
//
// Layers are *stateless between calls*: they no longer cache their inputs.
// The owning network (Mlp, AttentionCritic) keeps every activation in a
// reusable workspace and hands the relevant buffers back to backward_into().
// That is what makes the steady-state hot path allocation-free: the
// activation produced by forward IS the cached input of the next layer — no
// deep copy, and all buffers are reused across iterations.
#pragma once

#include <memory>
#include <vector>

#include "nn/matrix.h"

namespace hero::nn {

// View over one trainable parameter and its gradient accumulator.
struct ParamRef {
  Matrix* value;
  Matrix* grad;
};

// Read-only view, for const traversals (parameter counting, inspection).
struct ConstParamRef {
  const Matrix* value;
  const Matrix* grad;
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Computes the layer output for a (batch, in) input into `y` (resized as
  // needed, allocation-free once capacity has settled). `y` must not alias
  // `x`.
  virtual void forward_into(const Matrix& x, Matrix& y) = 0;

  // Given the input `x` and output `y` of the matching forward_into call and
  // dL/d(output), accumulates parameter gradients and writes dL/d(input)
  // into `grad_in`. `grad_in` must not alias any other argument.
  virtual void backward_into(const Matrix& x, const Matrix& y,
                             const Matrix& grad_out, Matrix& grad_in) = 0;

  // Like backward_into, but skips parameter-gradient accumulation — for
  // callers that only need dL/d(input), e.g. differentiating a frozen critic
  // w.r.t. its action inputs in a deterministic-policy-gradient update.
  // Parameterless layers inherit the default (their backward has no
  // parameter work to skip).
  virtual void backward_input_into(const Matrix& x, const Matrix& y,
                                   const Matrix& grad_out, Matrix& grad_in) {
    backward_into(x, y, grad_out, grad_in);
  }

  // Like backward_into, but writes no dL/d(input): accumulates the
  // parameter gradients only — for a network's first layer when the caller
  // discards the input gradient. Parameterless layers have nothing to do.
  virtual void backward_params_into(const Matrix& /*x*/, const Matrix& /*y*/,
                                    const Matrix& /*grad_out*/) {}

  // Trainable parameters (empty for activations).
  virtual std::vector<ParamRef> params() { return {}; }
  // Const overload — lets const code (e.g. Mlp::num_params) walk the
  // parameters without const_cast.
  virtual std::vector<ConstParamRef> params() const { return {}; }

  virtual std::unique_ptr<Layer> clone() const = 0;

  virtual std::size_t in_dim() const = 0;
  virtual std::size_t out_dim() const = 0;
};

}  // namespace hero::nn
