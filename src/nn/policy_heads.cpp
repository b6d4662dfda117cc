#include "nn/policy_heads.h"

#include <algorithm>
#include <cmath>

namespace hero::nn {

namespace {
constexpr double kLogStdMid = -1.5;   // soft-clamp centre of log σ
constexpr double kLogStdHalf = 3.5;   // log σ ∈ (-5, 2)
constexpr double kHalfLog2Pi = 0.9189385332046727;
constexpr double kSquashEps = 1e-6;   // keeps log(1 - t²) finite at |t|→1
}  // namespace

// --------------------------- CategoricalPolicy ------------------------------

CategoricalPolicy::CategoricalPolicy(std::size_t in,
                                     const std::vector<std::size_t>& hidden,
                                     std::size_t num_actions, Rng& rng)
    : net_(in, hidden, num_actions, rng) {}

std::vector<double> CategoricalPolicy::probs1(const std::vector<double>& obs) {
  // Softmax over the single logits row, in place.
  std::vector<double> p = net_.forward1(obs);
  const double mx = *std::max_element(p.begin(), p.end());
  double z = 0.0;
  for (double& v : p) {
    v = std::exp(v - mx);
    z += v;
  }
  for (double& v : p) v /= z;
  return p;
}

std::size_t CategoricalPolicy::act(const std::vector<double>& obs, Rng& rng,
                                   bool greedy) {
  std::vector<double> p = probs1(obs);
  if (greedy) {
    return static_cast<std::size_t>(
        std::max_element(p.begin(), p.end()) - p.begin());
  }
  return rng.categorical(p);
}

// ------------------------ SquashedGaussianPolicy ----------------------------

SquashedGaussianPolicy::SquashedGaussianPolicy(std::size_t obs_dim,
                                               const std::vector<std::size_t>& hidden,
                                               std::vector<double> lo,
                                               std::vector<double> hi, Rng& rng)
    : trunk_(obs_dim, hidden, 2 * lo.size(), rng),
      lo_(std::move(lo)),
      hi_(std::move(hi)) {
  HERO_CHECK(lo_.size() == hi_.size() && !lo_.empty());
  for (std::size_t k = 0; k < lo_.size(); ++k) HERO_CHECK(lo_[k] < hi_[k]);
}

void SquashedGaussianPolicy::sample_into(const Matrix& obs, Rng& rng,
                                         bool deterministic, Sample& s) {
  const std::size_t k = action_dim();
  const Matrix& out = trunk_.forward(obs);
  HERO_CHECK(out.cols() == 2 * k);
  const std::size_t n = out.rows();

  s.actions.resize(n, k);
  s.log_prob.assign(n, 0.0);
  s.eps.resize(n, k);
  s.t.resize(n, k);
  s.std.resize(n, k);
  s.dls_draw.resize(n, k);

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const double mean = out(i, j);
      const double raw_ls = out(i, k + j);
      // Soft clamp: logσ = mid + half·tanh(raw); smooth gradient everywhere.
      const double tls = std::tanh(raw_ls);
      const double logstd = kLogStdMid + kLogStdHalf * tls;
      const double dls = kLogStdHalf * (1.0 - tls * tls);
      const double std = std::exp(logstd);
      const double eps = deterministic ? 0.0 : rng.normal();
      const double pre = mean + std * eps;
      const double t = std::tanh(pre);
      const double center = 0.5 * (hi_[j] + lo_[j]);
      const double scale = 0.5 * (hi_[j] - lo_[j]);
      s.actions(i, j) = center + scale * t;
      s.eps(i, j) = eps;
      s.t(i, j) = t;
      s.std(i, j) = std;
      s.dls_draw(i, j) = dls;
      // log N(pre; mean, σ) − log |da/dpre| with a = c + s·tanh(pre)
      s.log_prob[i] += -0.5 * eps * eps - logstd - kHalfLog2Pi -
                       std::log(scale * (1.0 - t * t) + kSquashEps);
    }
  }
}

void SquashedGaussianPolicy::act_rows_into(const Matrix& obs, Rng* const* rngs,
                                           bool deterministic, Matrix& actions) {
  const std::size_t k = action_dim();
  const Matrix& out = trunk_.forward(obs);
  HERO_CHECK(out.cols() == 2 * k);
  const std::size_t n = out.rows();

  actions.resize(n, k);
  // Same per-element expressions as sample_into so a batched draw with
  // stream R reproduces the serial act1 draw with stream R bitwise.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const double mean = out(i, j);
      const double raw_ls = out(i, k + j);
      const double tls = std::tanh(raw_ls);
      const double logstd = kLogStdMid + kLogStdHalf * tls;
      const double std = std::exp(logstd);
      const double eps = deterministic ? 0.0 : rngs[i]->normal();
      const double pre = mean + std * eps;
      const double t = std::tanh(pre);
      const double center = 0.5 * (hi_[j] + lo_[j]);
      const double scale = 0.5 * (hi_[j] - lo_[j]);
      actions(i, j) = center + scale * t;
    }
  }
}

SquashedGaussianPolicy::Sample SquashedGaussianPolicy::sample(const Matrix& obs,
                                                              Rng& rng,
                                                              bool deterministic) {
  Sample s;
  sample_into(obs, rng, deterministic, s);
  return s;
}

std::vector<double> SquashedGaussianPolicy::act1(const std::vector<double>& obs,
                                                 Rng& rng, bool deterministic) {
  obs_row_.resize(1, obs.size());
  std::copy(obs.begin(), obs.end(), obs_row_.data());
  return sample(obs_row_, rng, deterministic).actions.row_vec(0);
}

void SquashedGaussianPolicy::backward(const Sample& s, const Matrix& dL_da,
                                      const std::vector<double>& dL_dlogp) {
  const std::size_t k = action_dim();
  const std::size_t n = s.actions.rows();
  HERO_CHECK(dL_da.rows() == n && dL_da.cols() == k && dL_dlogp.size() == n);

  grad_out_.resize(n, 2 * k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const double t = s.t(i, j);
      const double std = s.std(i, j);
      const double eps = s.eps(i, j);
      const double scale = 0.5 * (hi_[j] - lo_[j]);
      const double sech2 = 1.0 - t * t;          // d tanh / d pre
      const double da_dpre = scale * sech2;      // d action / d pre-squash
      // d log π / d pre (holding eps fixed): from −log(scale·(1−t²)+ε)
      const double dlogp_dpre = 2.0 * t * scale * sech2 / (scale * sech2 + kSquashEps);
      const double g_pre = dL_da(i, j) * da_dpre + dL_dlogp[i] * dlogp_dpre;
      // mean path: dpre/dmean = 1
      grad_out_(i, j) = g_pre;
      // logstd path: dpre/dlogσ = σ·eps; plus the explicit −logσ term of logπ,
      // both routed through the soft-clamp derivative.
      const double g_logstd = g_pre * std * eps + dL_dlogp[i] * (-1.0);
      grad_out_(i, k + j) = g_logstd * s.dls_draw(i, j);
    }
  }
  trunk_.backward_params(grad_out_);
}

// ------------------------ DeterministicTanhPolicy ---------------------------

DeterministicTanhPolicy::DeterministicTanhPolicy(
    std::size_t obs_dim, const std::vector<std::size_t>& hidden,
    std::vector<double> lo, std::vector<double> hi, Rng& rng)
    : trunk_(obs_dim, hidden, lo.size(), rng, Activation::kReLU, Activation::kTanh),
      lo_(std::move(lo)),
      hi_(std::move(hi)) {
  HERO_CHECK(lo_.size() == hi_.size() && !lo_.empty());
}

const Matrix& DeterministicTanhPolicy::forward(const Matrix& obs) {
  const Matrix& t = trunk_.forward(obs);
  action_.resize(t.rows(), t.cols());
  for (std::size_t i = 0; i < t.rows(); ++i) {
    for (std::size_t j = 0; j < t.cols(); ++j) {
      const double center = 0.5 * (hi_[j] + lo_[j]);
      const double scale = 0.5 * (hi_[j] - lo_[j]);
      action_(i, j) = center + scale * t(i, j);
    }
  }
  return action_;
}

std::vector<double> DeterministicTanhPolicy::act1(const std::vector<double>& obs) {
  obs_row_.resize(1, obs.size());
  std::copy(obs.begin(), obs.end(), obs_row_.data());
  return forward(obs_row_).row_vec(0);
}

void DeterministicTanhPolicy::backward(const Matrix& dL_da) {
  grad_.copy_from(dL_da);
  for (std::size_t i = 0; i < grad_.rows(); ++i) {
    for (std::size_t j = 0; j < grad_.cols(); ++j) {
      grad_(i, j) *= 0.5 * (hi_[j] - lo_[j]);
    }
  }
  trunk_.backward_params(grad_);
}

}  // namespace hero::nn
