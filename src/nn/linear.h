// Fully-connected layer: y = x W + b with W of shape (in, out).
//
// forward_into is the fused affine kernel (matmul + bias broadcast in one
// pass); backward_into contracts against the transposed operands in place
// (matmul_transA_into / matmul_transB_into), so no transpose is ever
// materialized and steady-state calls allocate nothing.
#pragma once

#include "nn/layer.h"

namespace hero::nn {

class Linear final : public Layer {
 public:
  Linear(std::size_t in, std::size_t out, Rng& rng);

  void forward_into(const Matrix& x, Matrix& y) override;
  void backward_into(const Matrix& x, const Matrix& y, const Matrix& grad_out,
                     Matrix& grad_in) override;
  void backward_input_into(const Matrix& x, const Matrix& y,
                           const Matrix& grad_out, Matrix& grad_in) override;
  void backward_params_into(const Matrix& x, const Matrix& y,
                            const Matrix& grad_out) override;
  std::vector<ParamRef> params() override;
  std::vector<ConstParamRef> params() const override;
  std::unique_ptr<Layer> clone() const override;

  std::size_t in_dim() const override { return in_; }
  std::size_t out_dim() const override { return out_; }

  Matrix& weight() { return w_; }
  Matrix& bias() { return b_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Matrix w_;       // (in, out)
  Matrix b_;       // (1, out)
  Matrix grad_w_;  // accumulated dL/dW
  Matrix grad_b_;
};

}  // namespace hero::nn
