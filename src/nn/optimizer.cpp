#include "nn/optimizer.h"

#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace hero::nn {

Sgd::Sgd(std::vector<ParamRef> params, double lr, double momentum)
    : params_(std::move(params)), lr_(lr), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (auto& p : params_) velocity_.emplace_back(p.value->rows(), p.value->cols());
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Matrix& w = *params_[i].value;
    Matrix& g = *params_[i].grad;
    HERO_DCHECK_FINITE(g, "Sgd::step gradient");
    Matrix& vel = velocity_[i];
    for (std::size_t k = 0; k < w.size(); ++k) {
      vel.data()[k] = momentum_ * vel.data()[k] + g.data()[k];
      w.data()[k] -= lr_ * vel.data()[k];
    }
    HERO_DCHECK_FINITE(w, "Sgd::step updated weights");
    g.fill(0.0);
  }
}

Adam::Adam(std::vector<ParamRef> params, double lr, double beta1, double beta2,
           double eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto& p : params_) {
    m_.emplace_back(p.value->rows(), p.value->cols());
    v_.emplace_back(p.value->rows(), p.value->cols());
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Matrix& w = *params_[i].value;
    Matrix& g = *params_[i].grad;
    HERO_DCHECK_FINITE(g, "Adam::step gradient");
    double* wp = w.data();
    const double* gp = g.data();
    double* mp = m_[i].data();
    double* vp = v_[i].data();
    std::size_t k = 0;
#if defined(__SSE2__)
    // Two parameters per instruction, each with the scalar loop's exact
    // operations and association (no FMA: baseline x86-64 has none, so the
    // scalar loop never fused either).
    const __m128d b1 = _mm_set1_pd(beta1_), c1 = _mm_set1_pd(1.0 - beta1_);
    const __m128d b2 = _mm_set1_pd(beta2_), c2 = _mm_set1_pd(1.0 - beta2_);
    const __m128d bc1v = _mm_set1_pd(bc1), bc2v = _mm_set1_pd(bc2);
    const __m128d lr = _mm_set1_pd(lr_), eps = _mm_set1_pd(eps_);
    for (; k + 2 <= w.size(); k += 2) {
      const __m128d gk = _mm_loadu_pd(gp + k);
      const __m128d mk =
          _mm_add_pd(_mm_mul_pd(b1, _mm_loadu_pd(mp + k)), _mm_mul_pd(c1, gk));
      const __m128d vk = _mm_add_pd(_mm_mul_pd(b2, _mm_loadu_pd(vp + k)),
                                    _mm_mul_pd(_mm_mul_pd(c2, gk), gk));
      _mm_storeu_pd(mp + k, mk);
      _mm_storeu_pd(vp + k, vk);
      const __m128d mhat = _mm_div_pd(mk, bc1v);
      const __m128d vhat = _mm_div_pd(vk, bc2v);
      const __m128d step =
          _mm_div_pd(_mm_mul_pd(lr, mhat), _mm_add_pd(_mm_sqrt_pd(vhat), eps));
      _mm_storeu_pd(wp + k, _mm_sub_pd(_mm_loadu_pd(wp + k), step));
    }
#endif
    for (; k < w.size(); ++k) {
      double gk = gp[k];
      mp[k] = beta1_ * mp[k] + (1.0 - beta1_) * gk;
      vp[k] = beta2_ * vp[k] + (1.0 - beta2_) * gk * gk;
      double mhat = mp[k] / bc1;
      double vhat = vp[k] / bc2;
      wp[k] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
    HERO_DCHECK_FINITE(w, "Adam::step updated weights");
    g.fill(0.0);
  }
}

}  // namespace hero::nn
