#include "support/nn_kernel_oracle.h"

#include <cmath>

namespace hero::nn::oracle {
namespace {

// One 4-step block of a contraction, folded into the accumulator `o`:
//   o + ((x0·v0 + x1·v1) + (x2·v2 + x3·v3))          without FMA,
//   o + (fma(x0,v0, x1·v1) + fma(x2,v2, x3·v3))      kFirstFused,
//   o + (fma(x1,v1, x0·v0) + fma(x3,v3, x2·v2))      kSecondFused.
enum class Pair { kNoFma, kFirstFused, kSecondFused };

double block4(Pair pair, double o, const double x[4], const double v[4]) {
  double p01 = 0.0, p23 = 0.0;
  switch (pair) {
    case Pair::kNoFma:
      p01 = x[0] * v[0] + x[1] * v[1];
      p23 = x[2] * v[2] + x[3] * v[3];
      break;
    case Pair::kFirstFused:
      p01 = std::fma(x[0], v[0], x[1] * v[1]);
      p23 = std::fma(x[2], v[2], x[3] * v[3]);
      break;
    case Pair::kSecondFused:
      p01 = std::fma(x[1], v[1], x[0] * v[0]);
      p23 = std::fma(x[3], v[3], x[2] * v[2]);
      break;
  }
  return o + (p01 + p23);
}

// A leftover contraction step: o + x·v, fused on FMA targets.
double step1(Seq seq, double o, double x, double v) {
  return seq == Seq::kFma ? std::fma(x, v, o) : o + x * v;
}

}  // namespace

void affine(Seq seq, const double* a, std::size_t m, std::size_t k, const double* w,
            std::size_t n, const double* bias, double* o) {
  // On FMA targets the last n mod 4 columns fuse the other product of each
  // pair: they are the kernels' scalar tail, whose order GCC's contraction
  // picked before the kernels pinned it.
  const std::size_t vec_cols = n - n % 4;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const Pair pair = seq == Seq::kBase ? Pair::kNoFma
                        : j < vec_cols    ? Pair::kSecondFused
                                          : Pair::kFirstFused;
      double acc = bias[j];
      std::size_t c = 0;
      for (; c + 4 <= k; c += 4) {
        const double x[4] = {a[i * k + c], a[i * k + c + 1], a[i * k + c + 2],
                             a[i * k + c + 3]};
        const double v[4] = {w[c * n + j], w[(c + 1) * n + j], w[(c + 2) * n + j],
                             w[(c + 3) * n + j]};
        acc = block4(pair, acc, x, v);
      }
      for (; c < k; ++c) acc = step1(seq, acc, a[i * k + c], w[c * n + j]);
      o[i * n + j] = acc;
    }
  }
}

void transA_accum(Seq seq, const double* a, std::size_t m, std::size_t k,
                  const double* b, std::size_t n, double* o) {
  const Pair pair = seq == Seq::kBase ? Pair::kNoFma : Pair::kFirstFused;
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = o[r * n + j];
      std::size_t i = 0;
      for (; i + 4 <= m; i += 4) {
        const double x[4] = {a[i * k + r], a[(i + 1) * k + r], a[(i + 2) * k + r],
                             a[(i + 3) * k + r]};
        const double v[4] = {b[i * n + j], b[(i + 1) * n + j], b[(i + 2) * n + j],
                             b[(i + 3) * n + j]};
        acc = block4(pair, acc, x, v);
      }
      for (; i < m; ++i) acc = step1(seq, acc, a[i * k + r], b[i * n + j]);
      o[r * n + j] = acc;
    }
  }
}

void transB(Seq seq, const double* a, std::size_t m, std::size_t k, const double* b,
            std::size_t n, double* o, bool accumulate) {
  const std::size_t vec_cols = n - n % 4;
  for (std::size_t i = 0; i < m; ++i) {
    const double* x = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const double* y = b + j * k;
      double s = 0.0;
      if (seq == Seq::kBase) {
        // Two partial sums, even and odd k; an odd last k joins the even one.
        double even = 0.0, odd = 0.0;
        std::size_t c = 0;
        for (; c + 2 <= k; c += 2) {
          even = even + x[c] * y[c];
          odd = odd + x[c + 1] * y[c + 1];
        }
        if (c < k) even = even + x[c] * y[c];
        s = even + odd;
      } else {
        // Four lanes over the 4-blocks of k, folded pairwise: vector columns
        // fold (l0+l1)+(l2+l3), the last n mod 4 columns (l0+l2)+(l1+l3).
        double lane[4] = {0.0, 0.0, 0.0, 0.0};
        std::size_t c = 0;
        for (; c + 4 <= k; c += 4) {
          for (std::size_t l = 0; l < 4; ++l) {
            lane[l] = std::fma(x[c + l], y[c + l], lane[l]);
          }
        }
        s = j < vec_cols ? (lane[0] + lane[1]) + (lane[2] + lane[3])
                         : (lane[0] + lane[2]) + (lane[1] + lane[3]);
        // The leftover k (k mod 4 of them) add in order: a leading pair
        // multiplies and adds without fusing (GCC once vectorized this
        // remainder two products at a time) and an odd last one fuses.
        for (; c + 2 <= k; c += 2) {
          s = s + x[c] * y[c];
          s = s + x[c + 1] * y[c + 1];
        }
        if (c < k) s = std::fma(x[c], y[c], s);
      }
      o[i * n + j] = accumulate ? o[i * n + j] + s : s;
    }
  }
}

}  // namespace hero::nn::oracle
