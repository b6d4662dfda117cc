#include "nn/linear.h"

namespace hero::nn {

Linear::Linear(std::size_t in, std::size_t out, Rng& rng)
    : in_(in),
      out_(out),
      w_(Matrix::xavier(in, out, rng)),
      b_(1, out, 0.0),
      grad_w_(in, out, 0.0),
      grad_b_(1, out, 0.0) {
  // Tiny bias noise instead of exact zeros: breaks dead-ReLU ties at
  // initialization (a fully-dead hidden row would otherwise propagate
  // *exactly* zero pre-activations into every downstream ReLU, parking the
  // network on the kink where gradients are ill-defined).
  for (std::size_t j = 0; j < out; ++j) b_(0, j) = rng.uniform(-0.01, 0.01);
}

void Linear::forward_into(const Matrix& x, Matrix& y) {
  HERO_CHECK_MSG(x.cols() == in_, "Linear: input dim " << x.cols() << " != " << in_);
  x.affine_into(w_, b_, y);
}

void Linear::backward_into(const Matrix& x, const Matrix& y, const Matrix& grad_out,
                           Matrix& grad_in) {
  backward_params_into(x, y, grad_out);
  // dx = dy · Wᵀ, transpose-free.
  grad_out.matmul_transB_into(w_, grad_in);
}

void Linear::backward_params_into(const Matrix& x, const Matrix& y,
                                  const Matrix& grad_out) {
  (void)y;
  HERO_CHECK(grad_out.rows() == x.rows() && grad_out.cols() == out_);
  // dW += xᵀ · dy, transpose-free.
  x.matmul_transA_into(grad_out, grad_w_, /*accumulate=*/true);
  // db += column sums of dy.
  double* gb = grad_b_.data();
  for (std::size_t i = 0; i < grad_out.rows(); ++i) {
    const double* grow = grad_out.row_ptr(i);
    for (std::size_t j = 0; j < out_; ++j) gb[j] += grow[j];
  }
}

void Linear::backward_input_into(const Matrix& x, const Matrix& y,
                                 const Matrix& grad_out, Matrix& grad_in) {
  (void)y;
  HERO_CHECK(grad_out.rows() == x.rows() && grad_out.cols() == out_);
  // Only dx = dy · Wᵀ — no dW/db accumulation.
  grad_out.matmul_transB_into(w_, grad_in);
}

std::vector<ParamRef> Linear::params() {
  return {{&w_, &grad_w_}, {&b_, &grad_b_}};
}

std::vector<ConstParamRef> Linear::params() const {
  return {{&w_, &grad_w_}, {&b_, &grad_b_}};
}

std::unique_ptr<Layer> Linear::clone() const { return std::make_unique<Linear>(*this); }

}  // namespace hero::nn
