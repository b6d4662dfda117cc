#include "nn/activation.h"

#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace hero::nn {

// ReLU is y = x > 0 ? x : +0 and dx = x > 0 ? g : +0, so NaN and −0 map to
// +0 and a NaN gradient passes only where x > 0. Written as branch-free SSE2
// (part of baseline x86-64): MAXPD returns its second operand unless the
// first is greater, and a CMPGTPD mask ANDed with g keeps g exactly where
// x > 0. A compare-and-branch loop mispredicts on every random-sign element,
// and that costs ~10× the branch-free form.
void ReLU::forward_into(const Matrix& x, Matrix& y) {
  y.resize(x.rows(), x.cols());
  const double* src = x.data();
  double* dst = y.data();
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128d zero = _mm_setzero_pd();
  for (; i + 2 <= x.size(); i += 2) {
    _mm_storeu_pd(dst + i, _mm_max_pd(_mm_loadu_pd(src + i), zero));
  }
#endif
  for (; i < x.size(); ++i) dst[i] = src[i] > 0.0 ? src[i] : 0.0;
}

void ReLU::backward_into(const Matrix& x, const Matrix& y, const Matrix& grad_out,
                         Matrix& grad_in) {
  (void)y;
  HERO_CHECK(grad_out.same_shape(x));
  grad_in.resize(x.rows(), x.cols());
  const double* xs = x.data();
  const double* g = grad_out.data();
  double* out = grad_in.data();
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128d zero = _mm_setzero_pd();
  for (; i + 2 <= x.size(); i += 2) {
    const __m128d live = _mm_cmpgt_pd(_mm_loadu_pd(xs + i), zero);
    _mm_storeu_pd(out + i, _mm_and_pd(live, _mm_loadu_pd(g + i)));
  }
#endif
  for (; i < x.size(); ++i) out[i] = xs[i] > 0.0 ? g[i] : 0.0;
}

void Tanh::forward_into(const Matrix& x, Matrix& y) {
  y.resize(x.rows(), x.cols());
  const double* src = x.data();
  double* dst = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) dst[i] = std::tanh(src[i]);
}

void Tanh::backward_into(const Matrix& x, const Matrix& y, const Matrix& grad_out,
                         Matrix& grad_in) {
  (void)x;
  HERO_CHECK(grad_out.same_shape(y));
  grad_in.resize(y.rows(), y.cols());
  const double* t = y.data();
  const double* g = grad_out.data();
  double* out = grad_in.data();
  for (std::size_t i = 0; i < y.size(); ++i) out[i] = g[i] * (1.0 - t[i] * t[i]);
}

}  // namespace hero::nn
