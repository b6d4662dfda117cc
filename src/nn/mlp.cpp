#include "nn/mlp.h"

#include <cmath>

#include "obs/phase.h"
#include "obs/metrics.h"

namespace hero::nn {

namespace {

// Hot-path throughput counters; the references are resolved once, and each
// pass costs one relaxed bool load when metrics are disabled.
void count_forward(std::size_t rows) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& calls = obs::Registry::instance().counter("nn.forward_calls");
  static obs::Counter& row_count = obs::Registry::instance().counter("nn.forward_rows");
  calls.inc();
  row_count.inc(static_cast<long long>(rows));
}

void count_backward(std::size_t rows) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& calls = obs::Registry::instance().counter("nn.backward_calls");
  static obs::Counter& row_count = obs::Registry::instance().counter("nn.backward_rows");
  calls.inc();
  row_count.inc(static_cast<long long>(rows));
}
std::unique_ptr<Layer> make_activation(Activation act, std::size_t dim) {
  switch (act) {
    case Activation::kReLU: return std::make_unique<ReLU>(dim);
    case Activation::kTanh: return std::make_unique<Tanh>(dim);
    case Activation::kIdentity: return nullptr;
  }
  return nullptr;
}
}  // namespace

Mlp::Mlp(std::size_t in, const std::vector<std::size_t>& hidden, std::size_t out,
         Rng& rng, Activation act, Activation out_act) {
  std::size_t prev = in;
  for (std::size_t h : hidden) {
    layers_.push_back(std::make_unique<Linear>(prev, h, rng));
    if (auto a = make_activation(act, h)) layers_.push_back(std::move(a));
    prev = h;
  }
  layers_.push_back(std::make_unique<Linear>(prev, out, rng));
  if (auto a = make_activation(out_act, out)) layers_.push_back(std::move(a));
}

Mlp::Mlp(const Mlp& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

Mlp& Mlp::operator=(const Mlp& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
  acts_.clear();
  grads_.clear();
  param_cache_.clear();
  return *this;
}

const Matrix& Mlp::forward(const Matrix& x) {
  OBS_PHASE("nn_forward");
  HERO_CHECK(!layers_.empty());
  HERO_DCHECK_MSG(x.cols() == in_dim(),
                  "Mlp::forward: input dim " << x.cols() << " != " << in_dim());
  HERO_DCHECK_FINITE(x, "Mlp::forward input");
  count_forward(x.rows());
  if (acts_.size() != layers_.size() + 1) acts_.resize(layers_.size() + 1);
  acts_[0].copy_from(x);
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->forward_into(acts_[i], acts_[i + 1]);
  }
  HERO_DCHECK_FINITE(acts_.back(), "Mlp::forward output");
  return acts_.back();
}

std::vector<double> Mlp::forward1(const std::vector<double>& x) {
  in_row_.resize(1, x.size());
  std::copy(x.begin(), x.end(), in_row_.data());
  return forward(in_row_).row_vec(0);
}

const Matrix& Mlp::backward(const Matrix& grad_out) {
  OBS_PHASE("nn_backward");
  backward_layers(grad_out, /*input_grad=*/true);
  HERO_DCHECK_FINITE(grads_.front(), "Mlp::backward grad_in");
  return grads_.front();
}

void Mlp::backward_params(const Matrix& grad_out) {
  OBS_PHASE("nn_backward");
  backward_layers(grad_out, /*input_grad=*/false);
}

void Mlp::backward_layers(const Matrix& grad_out, bool input_grad) {
  HERO_CHECK(!layers_.empty());
  count_backward(grad_out.rows());
  HERO_CHECK_MSG(acts_.size() == layers_.size() + 1,
                 "Mlp::backward called before forward");
  HERO_CHECK(grad_out.same_shape(acts_.back()));
  HERO_DCHECK_FINITE(grad_out, "Mlp::backward grad_out");
  if (grads_.size() != acts_.size()) grads_.resize(acts_.size());
  grads_.back().copy_from(grad_out);
  for (std::size_t i = layers_.size(); i-- > 1;) {
    layers_[i]->backward_into(acts_[i], acts_[i + 1], grads_[i + 1], grads_[i]);
  }
  if (input_grad) {
    layers_[0]->backward_into(acts_[0], acts_[1], grads_[1], grads_[0]);
  } else {
    layers_[0]->backward_params_into(acts_[0], acts_[1], grads_[1]);
  }
}

const Matrix& Mlp::backward_input(const Matrix& grad_out) {
  OBS_PHASE("nn_backward");
  HERO_CHECK(!layers_.empty());
  count_backward(grad_out.rows());
  HERO_CHECK_MSG(acts_.size() == layers_.size() + 1,
                 "Mlp::backward_input called before forward");
  HERO_CHECK(grad_out.same_shape(acts_.back()));
  if (grads_.size() != acts_.size()) grads_.resize(acts_.size());
  grads_.back().copy_from(grad_out);
  for (std::size_t i = layers_.size(); i-- > 0;) {
    layers_[i]->backward_input_into(acts_[i], acts_[i + 1], grads_[i + 1], grads_[i]);
  }
  return grads_.front();
}

const std::vector<ParamRef>& Mlp::params() {
  if (param_cache_.empty()) {
    for (auto& l : layers_)
      for (auto p : l->params()) param_cache_.push_back(p);
  }
  return param_cache_;
}

void Mlp::zero_grad() {
  for (auto p : params()) p.grad->fill(0.0);
}

void Mlp::soft_update_from(Mlp& src, double tau) {
  const auto& dst_params = params();
  const auto& src_params = src.params();
  HERO_CHECK(dst_params.size() == src_params.size());
  for (std::size_t i = 0; i < dst_params.size(); ++i) {
    Matrix& d = *dst_params[i].value;
    const Matrix& s = *src_params[i].value;
    HERO_CHECK(d.same_shape(s));
    for (std::size_t k = 0; k < d.size(); ++k)
      d.data()[k] = tau * s.data()[k] + (1.0 - tau) * d.data()[k];
  }
}

void Mlp::copy_params_from(Mlp& src) { soft_update_from(src, 1.0); }

double Mlp::clip_grad_norm(double max_norm) {
  double sq = 0.0;
  const auto& ps = params();
  for (auto p : ps)
    for (std::size_t k = 0; k < p.grad->size(); ++k)
      sq += p.grad->data()[k] * p.grad->data()[k];
  double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    double scale = max_norm / norm;
    for (auto p : ps)
      for (std::size_t k = 0; k < p.grad->size(); ++k) p.grad->data()[k] *= scale;
  }
  return norm;
}

std::size_t Mlp::in_dim() const {
  HERO_CHECK(!layers_.empty());
  return layers_.front()->in_dim();
}

std::size_t Mlp::out_dim() const {
  HERO_CHECK(!layers_.empty());
  return layers_.back()->out_dim();
}

std::vector<std::size_t> Mlp::layer_dims() const {
  std::vector<std::size_t> dims;
  if (layers_.empty()) return dims;
  dims.push_back(layers_.front()->in_dim());
  for (const auto& l : layers_) {
    const Layer& layer = *l;
    // Only parameterized (Linear) layers change the width; activations are
    // width-preserving and would just duplicate entries.
    if (!layer.params().empty()) dims.push_back(layer.out_dim());
  }
  return dims;
}

std::size_t Mlp::num_params() const {
  std::size_t n = 0;
  for (const auto& l : layers_) {
    const Layer& layer = *l;
    for (auto p : layer.params()) n += p.value->size();
  }
  return n;
}

}  // namespace hero::nn
