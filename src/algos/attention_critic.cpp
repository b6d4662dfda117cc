#include "algos/attention_critic.h"

#include <cmath>

namespace hero::algos {

AttentionCritic::AttentionCritic(std::size_t obs_dim, std::size_t num_actions,
                                 std::size_t embed_dim,
                                 const std::vector<std::size_t>& hidden, Rng& rng)
    : obs_dim_(obs_dim),
      num_actions_(num_actions),
      embed_dim_(embed_dim),
      state_enc_(obs_dim, {embed_dim}, embed_dim, rng),
      sa_enc_(obs_dim + num_actions, {embed_dim}, embed_dim, rng),
      wq_(embed_dim, embed_dim, rng),
      wk_(embed_dim, embed_dim, rng),
      wv_(embed_dim, embed_dim, rng),
      relu_v_(embed_dim),
      head_(2 * embed_dim, hidden, num_actions, rng) {}

AttentionCritic::AttentionCritic(const AttentionCritic& other)
    : obs_dim_(other.obs_dim_),
      num_actions_(other.num_actions_),
      embed_dim_(other.embed_dim_),
      state_enc_(other.state_enc_),
      sa_enc_(other.sa_enc_),
      wq_(other.wq_),
      wk_(other.wk_),
      wv_(other.wv_),
      relu_v_(other.relu_v_),
      head_(other.head_) {}

AttentionCritic& AttentionCritic::operator=(const AttentionCritic& other) {
  if (this == &other) return *this;
  obs_dim_ = other.obs_dim_;
  num_actions_ = other.num_actions_;
  embed_dim_ = other.embed_dim_;
  state_enc_ = other.state_enc_;
  sa_enc_ = other.sa_enc_;
  wq_ = other.wq_;
  wk_ = other.wk_;
  wv_ = other.wv_;
  relu_v_ = other.relu_v_;
  head_ = other.head_;
  param_cache_.clear();
  return *this;
}

void AttentionCritic::forward(const nn::Matrix& own_obs, const nn::Matrix& others_sa,
                              Pass& p) {
  const std::size_t B = own_obs.rows();
  HERO_CHECK(own_obs.cols() == obs_dim_);
  HERO_CHECK(others_sa.cols() == obs_dim_ + num_actions_);
  HERO_CHECK(others_sa.rows() % B == 0);
  const std::size_t m = others_sa.rows() / B;
  HERO_CHECK_MSG(m >= 1, "attention critic needs at least one other agent");

  p.batch = B;
  p.others = m;

  p.e.copy_from(state_enc_.forward(own_obs));  // (B, d)
  p.u.copy_from(sa_enc_.forward(others_sa));   // (mB, d)
  wq_.forward_into(p.e, p.qvec);               // (B, d)
  wk_.forward_into(p.u, p.kvec);               // (mB, d)
  wv_.forward_into(p.u, p.vpre);               // (mB, d)
  relu_v_.forward_into(p.vpre, p.vvec);

  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(embed_dim_));
  // Attention scores and weights per batch row.
  p.attn.resize(B, m);
  scores_.resize(m);
  for (std::size_t b = 0; b < B; ++b) {
    double mx = -1e300;
    for (std::size_t j = 0; j < m; ++j) {
      double s = 0.0;
      const double* krow = p.kvec.row_ptr(j * B + b);
      const double* qrow = p.qvec.row_ptr(b);
      for (std::size_t c = 0; c < embed_dim_; ++c) s += qrow[c] * krow[c];
      scores_[j] = s * inv_sqrt_d;
      mx = std::max(mx, scores_[j]);
    }
    double z = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      scores_[j] = std::exp(scores_[j] - mx);
      z += scores_[j];
    }
    for (std::size_t j = 0; j < m; ++j) p.attn(b, j) = scores_[j] / z;
  }

  // Attended context x = Σ_j α_j v_j, then head([e ; x]).
  p.head_in.resize(B, 2 * embed_dim_);
  for (std::size_t b = 0; b < B; ++b) {
    double* hrow = p.head_in.row_ptr(b);
    const double* erow = p.e.row_ptr(b);
    for (std::size_t c = 0; c < embed_dim_; ++c) hrow[c] = erow[c];
    for (std::size_t c = 0; c < embed_dim_; ++c) hrow[embed_dim_ + c] = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double a = p.attn(b, j);
      const double* vrow = p.vvec.row_ptr(j * B + b);
      for (std::size_t c = 0; c < embed_dim_; ++c) hrow[embed_dim_ + c] += a * vrow[c];
    }
  }
  p.q.copy_from(head_.forward(p.head_in));
}

AttentionCritic::Pass AttentionCritic::forward(const nn::Matrix& own_obs,
                                               const nn::Matrix& others_sa) {
  Pass p;
  forward(own_obs, others_sa, p);
  return p;
}

void AttentionCritic::backward(const Pass& p, const nn::Matrix& dq) {
  const std::size_t B = p.batch;
  const std::size_t m = p.others;
  const std::size_t d = embed_dim_;
  HERO_CHECK(dq.rows() == B && dq.cols() == num_actions_);

  const nn::Matrix& dhead_in = head_.backward(dq);  // (B, 2d)
  de_.resize(B, d);  // accumulates into state encoder
  dx_.resize(B, d);
  for (std::size_t b = 0; b < B; ++b) {
    const double* hrow = dhead_in.row_ptr(b);
    double* derow = de_.row_ptr(b);
    double* dxrow = dx_.row_ptr(b);
    for (std::size_t c = 0; c < d; ++c) {
      derow[c] = hrow[c];
      dxrow[c] = hrow[d + c];
    }
  }

  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(d));
  dv_.resize(m * B, d);
  dk_.resize(m * B, d);
  dqvec_.resize(B, d);
  dqvec_.fill(0.0);
  dalpha_.resize(m);
  dscore_.resize(m);
  for (std::size_t b = 0; b < B; ++b) {
    // dα_j = dx · v_j ; softmax backward → dscore.
    const double* dxrow = dx_.row_ptr(b);
    double dot_sum = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      double s = 0.0;
      const double* vrow = p.vvec.row_ptr(j * B + b);
      for (std::size_t c = 0; c < d; ++c) s += dxrow[c] * vrow[c];
      dalpha_[j] = s;
      dot_sum += p.attn(b, j) * s;
    }
    for (std::size_t j = 0; j < m; ++j) {
      dscore_[j] = p.attn(b, j) * (dalpha_[j] - dot_sum);
    }
    const double* qrow = p.qvec.row_ptr(b);
    double* dqrow = dqvec_.row_ptr(b);
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t row = j * B + b;
      const double a = p.attn(b, j);
      const double ds = dscore_[j] * inv_sqrt_d;
      double* dvrow = dv_.row_ptr(row);
      double* dkrow = dk_.row_ptr(row);
      const double* krow = p.kvec.row_ptr(row);
      for (std::size_t c = 0; c < d; ++c) {
        dvrow[c] = a * dxrow[c];
        dkrow[c] = ds * qrow[c];
        dqrow[c] += ds * krow[c];
      }
    }
  }

  // Route through the projection layers back into the encoders.
  wq_.backward_into(p.e, p.qvec, dqvec_, dtmp_);
  de_ += dtmp_;
  wk_.backward_into(p.u, p.kvec, dk_, du_);
  relu_v_.backward_into(p.vpre, p.vvec, dv_, dvpre_);
  wv_.backward_into(p.u, p.vpre, dvpre_, dtmp_);
  du_ += dtmp_;
  sa_enc_.backward_params(du_);
  state_enc_.backward_params(de_);
}

const std::vector<nn::ParamRef>& AttentionCritic::params() {
  if (param_cache_.empty()) {
    for (auto p : state_enc_.params()) param_cache_.push_back(p);
    for (auto p : sa_enc_.params()) param_cache_.push_back(p);
    for (auto p : wq_.params()) param_cache_.push_back(p);
    for (auto p : wk_.params()) param_cache_.push_back(p);
    for (auto p : wv_.params()) param_cache_.push_back(p);
    for (auto p : head_.params()) param_cache_.push_back(p);
  }
  return param_cache_;
}

void AttentionCritic::zero_grad() {
  for (auto p : params()) p.grad->fill(0.0);
}

void AttentionCritic::soft_update_from(AttentionCritic& src, double tau) {
  const auto& dst_p = params();
  const auto& src_p = src.params();
  HERO_CHECK(dst_p.size() == src_p.size());
  for (std::size_t i = 0; i < dst_p.size(); ++i) {
    nn::Matrix& dstv = *dst_p[i].value;
    const nn::Matrix& srcv = *src_p[i].value;
    HERO_CHECK(dstv.same_shape(srcv));
    for (std::size_t k = 0; k < dstv.size(); ++k) {
      dstv.data()[k] = tau * srcv.data()[k] + (1.0 - tau) * dstv.data()[k];
    }
  }
}

double AttentionCritic::clip_grad_norm(double max_norm) {
  double sq = 0.0;
  const auto& ps = params();
  for (auto p : ps)
    for (std::size_t k = 0; k < p.grad->size(); ++k)
      sq += p.grad->data()[k] * p.grad->data()[k];
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (auto p : ps)
      for (std::size_t k = 0; k < p.grad->size(); ++k) p.grad->data()[k] *= scale;
  }
  return norm;
}

}  // namespace hero::algos
