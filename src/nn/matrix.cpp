#include "nn/matrix.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <utility>

#include "nn/kernels.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace hero::nn {
namespace {

// Runtime ISA dispatch for the dense kernels (nn/kernels.h): a baseline
// x86-64 set built from the always_inline loop bodies below, an AVX2+FMA set
// and an AVX-512 set, one picked once at start-up by __builtin_cpu_supports.
// Release binaries stay portable without giving up the wide units when they
// exist. (Feature-based dispatch, not target_clones("arch=..."): arch clones
// match the CPU *model*, which virtualized CPUs with a generic model string
// fail even when they expose every needed feature bit.)
#if defined(__x86_64__) && defined(__GNUC__)
#define HERO_KERNEL_DISPATCH 1
#define HERO_KERNEL_INLINE __attribute__((always_inline)) inline
#else
#define HERO_KERNEL_DISPATCH 0
#define HERO_KERNEL_INLINE inline
#endif

// o (m×n) += a (m×k) · b (k×n); every matrix row-major and contiguous, `o`
// already initialized. k is register-blocked by 4 so each pass over the
// output row folds in four rank-1 updates — one out-row load/store per four
// multiply-adds instead of one per multiply-add, which is what the
// vectorized loop is otherwise bound by.
HERO_KERNEL_INLINE
void mm_accum_body(const double* a, std::size_t m, std::size_t k, const double* b,
                   std::size_t n, double* o) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* orow = o + i * n;
    std::size_t c = 0;
    for (; c + 4 <= k; c += 4) {
      const double a0 = arow[c], a1 = arow[c + 1], a2 = arow[c + 2], a3 = arow[c + 3];
      const double* b0 = b + c * n;
      const double* b1 = b0 + n;
      const double* b2 = b1 + n;
      const double* b3 = b2 + n;
      for (std::size_t j = 0; j < n; ++j) {
        orow[j] += (a0 * b0[j] + a1 * b1[j]) + (a2 * b2[j] + a3 * b3[j]);
      }
    }
    for (; c < k; ++c) {
      const double ac = arow[c];
      const double* brow = b + c * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += ac * brow[j];
    }
  }
}

// o (k×n) += aᵀ·b with a (m×k), b (m×n): rank-1 updates over the shared row
// index, blocked by 4 batch rows — same load/store amortization as mm_accum.
// Neither transpose is ever materialized.
HERO_KERNEL_INLINE
void mm_transA_accum_body(const double* a, std::size_t m, std::size_t k, const double* b,
                     std::size_t n, double* o) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    const double* a2 = a1 + k;
    const double* a3 = a2 + k;
    const double* b0 = b + i * n;
    const double* b1 = b0 + n;
    const double* b2 = b1 + n;
    const double* b3 = b2 + n;
    for (std::size_t r = 0; r < k; ++r) {
      const double w0 = a0[r], w1 = a1[r], w2 = a2[r], w3 = a3[r];
      double* orow = o + r * n;
      for (std::size_t j = 0; j < n; ++j) {
        orow[j] += (w0 * b0[j] + w1 * b1[j]) + (w2 * b2[j] + w3 * b3[j]);
      }
    }
  }
  for (; i < m; ++i) {
    const double* arow = a + i * k;
    const double* brow = b + i * n;
    for (std::size_t r = 0; r < k; ++r) {
      const double w = arow[r];
      double* orow = o + r * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += w * brow[j];
    }
  }
}

// o (m×n) = (or +=) a (m×k) · bᵀ with b (n×k): row-dot-row, four dots in
// flight with two partial sums each — eight independent accumulation chains,
// so the serial FP-add latency of a lone dot product never gates throughput.
HERO_KERNEL_INLINE
void mm_transB_body(const double* a, std::size_t m, std::size_t k, const double* b,
               std::size_t n, double* o, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* orow = o + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b + j * k;
      const double* b1 = b0 + k;
      const double* b2 = b1 + k;
      const double* b3 = b2 + k;
      double s0a = 0.0, s0b = 0.0, s1a = 0.0, s1b = 0.0;
      double s2a = 0.0, s2b = 0.0, s3a = 0.0, s3b = 0.0;
      std::size_t c = 0;
      for (; c + 2 <= k; c += 2) {
        const double x0 = arow[c], x1 = arow[c + 1];
        s0a += x0 * b0[c];
        s0b += x1 * b0[c + 1];
        s1a += x0 * b1[c];
        s1b += x1 * b1[c + 1];
        s2a += x0 * b2[c];
        s2b += x1 * b2[c + 1];
        s3a += x0 * b3[c];
        s3b += x1 * b3[c + 1];
      }
      if (c < k) {
        const double x = arow[c];
        s0a += x * b0[c];
        s1a += x * b1[c];
        s2a += x * b2[c];
        s3a += x * b3[c];
      }
      if (accumulate) {
        orow[j] += s0a + s0b;
        orow[j + 1] += s1a + s1b;
        orow[j + 2] += s2a + s2b;
        orow[j + 3] += s3a + s3b;
      } else {
        orow[j] = s0a + s0b;
        orow[j + 1] = s1a + s1b;
        orow[j + 2] = s2a + s2b;
        orow[j + 3] = s3a + s3b;
      }
    }
    for (; j < n; ++j) {
      const double* brow = b + j * k;
      double sa = 0.0, sb = 0.0;
      std::size_t c = 0;
      for (; c + 2 <= k; c += 2) {
        sa += arow[c] * brow[c];
        sb += arow[c + 1] * brow[c + 1];
      }
      if (c < k) sa += arow[c] * brow[c];
      if (accumulate) {
        orow[j] += sa + sb;
      } else {
        orow[j] = sa + sb;
      }
    }
  }
}

// o (m×n) = a (m×k) · w (k×n) + bias (1×n): each output row is seeded with
// the broadcast bias, then accumulated in place — fusing the two passes
// halves the traffic over `o`.
//
// The k loop is OUTER and the sample loop inner, so each 4-row strip of `w`
// is loaded once and folded into every sample row while it is L1-hot: `w` is
// streamed exactly once per call no matter how many rows are batched — the
// difference between batch-oblivious and genuinely batched inference once
// the weights outgrow cache (docs/SERVING.md §Throughput). The extra traffic
// this moves onto `o` (re-swept once per k-block) stays L1-resident for any
// realistic batch. Every row's accumulation order is identical to the m=1
// path (k-blocks of 4 in order with the same pairwise sums, then a
// sequential tail), so results are bitwise independent of both the batch
// size and a row's position within it — the batched-equals-serial guarantees
// elsewhere in the repo rely on this.
HERO_KERNEL_INLINE
void mm_affine_body(const double* a, std::size_t m, std::size_t k, const double* w,
               std::size_t n, const double* bias, double* o) {
  for (std::size_t i = 0; i < m; ++i) {
    double* orow = o + i * n;
    for (std::size_t j = 0; j < n; ++j) orow[j] = bias[j];
  }
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    const double* w0 = w + c * n;
    const double* w1 = w0 + n;
    const double* w2 = w1 + n;
    const double* w3 = w2 + n;
    for (std::size_t i = 0; i < m; ++i) {
      const double* arow = a + i * k;
      double* orow = o + i * n;
      const double a0 = arow[c], a1 = arow[c + 1], a2 = arow[c + 2], a3 = arow[c + 3];
      for (std::size_t j = 0; j < n; ++j) {
        orow[j] += (a0 * w0[j] + a1 * w1[j]) + (a2 * w2[j] + a3 * w3[j]);
      }
    }
  }
  for (; c < k; ++c) {
    const double* wrow = w + c * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double ac = a[i * k + c];
      double* orow = o + i * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += ac * wrow[j];
    }
  }
}

void mm_accum_base(const double* a, std::size_t m, std::size_t k, const double* b,
                   std::size_t n, double* o) {
  mm_accum_body(a, m, k, b, n, o);
}
void mm_transA_accum_base(const double* a, std::size_t m, std::size_t k,
                          const double* b, std::size_t n, double* o) {
  mm_transA_accum_body(a, m, k, b, n, o);
}
void mm_transB_base(const double* a, std::size_t m, std::size_t k, const double* b,
                    std::size_t n, double* o, bool accumulate) {
  mm_transB_body(a, m, k, b, n, o, accumulate);
}
void mm_affine_base(const double* a, std::size_t m, std::size_t k, const double* w,
                    std::size_t n, const double* bias, double* o) {
  mm_affine_body(a, m, k, w, n, bias, o);
}

#if HERO_KERNEL_DISPATCH
#define HERO_TARGET_AVX2 __attribute__((target("avx2,fma")))
HERO_TARGET_AVX2 void mm_accum_avx2(const double* a, std::size_t m, std::size_t k,
                                    const double* b, std::size_t n, double* o) {
  mm_accum_body(a, m, k, b, n, o);
}
// A product that rounds on its own. The empty asm hides it from FP
// contraction, which would otherwise fuse it into the add it feeds.
template <class T>
HERO_TARGET_AVX2 inline T rounded_mul(T a, T b) {
  T p = a * b;
  asm("" : "+x"(p));
  return p;
}

// The row-dot-row contraction is the one kernel auto-vectorization cannot
// touch: its inner loop is a reduction, and reassociating it is off-limits
// without -ffast-math. Hand-vectorized here — four dot products with 256-bit
// accumulators, folded by a 4-vector horizontal sum. The k mod 4 leftover
// steps add in order: a leading pair multiplies and adds unfused, an odd last
// one fuses (the sequence GCC's vectorizer once gave this loop, now written
// out so no build can change it).
HERO_TARGET_AVX2 void mm_transB_avx2(const double* a, std::size_t m, std::size_t k,
                                     const double* b, std::size_t n, double* o,
                                     bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* orow = o + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b + j * k;
      const double* b1 = b0 + k;
      const double* b2 = b1 + k;
      const double* b3 = b2 + k;
      __m256d v0 = _mm256_setzero_pd();
      __m256d v1 = _mm256_setzero_pd();
      __m256d v2 = _mm256_setzero_pd();
      __m256d v3 = _mm256_setzero_pd();
      std::size_t c = 0;
      for (; c + 4 <= k; c += 4) {
        const __m256d x = _mm256_loadu_pd(arow + c);
        v0 = _mm256_fmadd_pd(x, _mm256_loadu_pd(b0 + c), v0);
        v1 = _mm256_fmadd_pd(x, _mm256_loadu_pd(b1 + c), v1);
        v2 = _mm256_fmadd_pd(x, _mm256_loadu_pd(b2 + c), v2);
        v3 = _mm256_fmadd_pd(x, _mm256_loadu_pd(b3 + c), v3);
      }
      // Fold [v0 v1 v2 v3] into one vector of the four dot products.
      const __m256d h01 = _mm256_hadd_pd(v0, v1);  // [v0_0+v0_1, v1_0+v1_1, v0_2+v0_3, v1_2+v1_3]
      const __m256d h23 = _mm256_hadd_pd(v2, v3);
      const __m256d swap = _mm256_permute2f128_pd(h01, h23, 0x21);
      const __m256d blnd = _mm256_blend_pd(h01, h23, 0b1100);
      __m256d sums = _mm256_add_pd(swap, blnd);  // [s0, s1, s2, s3]
      for (; c + 2 <= k; c += 2) {
        for (std::size_t q = c; q < c + 2; ++q) {
          const __m256d bq = _mm256_setr_pd(b0[q], b1[q], b2[q], b3[q]);
          sums = _mm256_add_pd(sums, rounded_mul(_mm256_set1_pd(arow[q]), bq));
        }
      }
      if (c < k) {
        const __m256d bc = _mm256_setr_pd(b0[c], b1[c], b2[c], b3[c]);
        sums = _mm256_fmadd_pd(_mm256_set1_pd(arow[c]), bc, sums);
      }
      if (accumulate) sums = _mm256_add_pd(sums, _mm256_loadu_pd(orow + j));
      _mm256_storeu_pd(orow + j, sums);
    }
    for (; j < n; ++j) {
      const double* brow = b + j * k;
      __m256d acc = _mm256_setzero_pd();
      std::size_t c = 0;
      for (; c + 4 <= k; c += 4) {
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(arow + c), _mm256_loadu_pd(brow + c), acc);
      }
      const __m128d lo = _mm256_castpd256_pd128(acc);
      const __m128d hi = _mm256_extractf128_pd(acc, 1);
      const __m128d pair = _mm_add_pd(lo, hi);
      double s = _mm_cvtsd_f64(_mm_hadd_pd(pair, pair));
      for (; c + 2 <= k; c += 2) {
        s = s + rounded_mul(arow[c], brow[c]);
        s = s + rounded_mul(arow[c + 1], brow[c + 1]);
      }
      if (c < k) s = __builtin_fma(arow[c], brow[c], s);
      if (accumulate) {
        orow[j] += s;
      } else {
        orow[j] = s;
      }
    }
  }
}
#undef HERO_TARGET_AVX2

// The register tiles (register_tile.inc), once per instruction set. Every
// function of a copy, V's included, carries HERO_TILE_TARGET, that set's
// target attribute, so the AVX2 copy never touches AVX-512 registers and
// runs on any AVX2+FMA CPU.
#define HERO_TILE_TARGET __attribute__((target("avx2,fma")))
namespace avx2 {
struct V {
  using reg = __m256d;
  using mask = __m256i;
  static constexpr std::size_t kLanes = 4;
  static constexpr int kMaxVectors = 8;
  // 16 ymm registers: accumulators plus four broadcasts and two partials.
  static constexpr int kAccBudget = 8;
  // Vector columns come in whole 4-lane vectors.
  static constexpr bool kMaskLast = false;
  HERO_TILE_TARGET static reg load(const double* p) { return _mm256_loadu_pd(p); }
  HERO_TILE_TARGET static reg load(const double* p, mask m) {
    return _mm256_maskload_pd(p, m);
  }
  HERO_TILE_TARGET static void store(double* p, reg v) { _mm256_storeu_pd(p, v); }
  HERO_TILE_TARGET static void store(double* p, mask m, reg v) {
    _mm256_maskstore_pd(p, m, v);
  }
  HERO_TILE_TARGET static reg bcast(double x) { return _mm256_set1_pd(x); }
  HERO_TILE_TARGET static reg mul(reg a, reg b) { return _mm256_mul_pd(a, b); }
  HERO_TILE_TARGET static reg add(reg a, reg b) { return _mm256_add_pd(a, b); }
  HERO_TILE_TARGET static reg fma(reg a, reg b, reg c) {
    return _mm256_fmadd_pd(a, b, c);
  }
  HERO_TILE_TARGET static mask first_lanes(std::size_t n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n)),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
};
#include "nn/register_tile.inc"
}  // namespace avx2
#undef HERO_TILE_TARGET

#define HERO_TILE_TARGET __attribute__((target("avx512f,avx2,fma")))
namespace avx512 {
struct V {
  using reg = __m512d;
  using mask = __mmask8;
  static constexpr std::size_t kLanes = 8;
  static constexpr int kMaxVectors = 4;
  // 32 zmm registers: four rows of a 32-column chunk.
  static constexpr int kAccBudget = 16;
  // Vector columns come in 4s, so the last vector may be half full.
  static constexpr bool kMaskLast = true;
  HERO_TILE_TARGET static reg load(const double* p) { return _mm512_loadu_pd(p); }
  HERO_TILE_TARGET static reg load(const double* p, mask m) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  HERO_TILE_TARGET static void store(double* p, reg v) { _mm512_storeu_pd(p, v); }
  HERO_TILE_TARGET static void store(double* p, mask m, reg v) {
    _mm512_mask_storeu_pd(p, m, v);
  }
  HERO_TILE_TARGET static reg bcast(double x) { return _mm512_set1_pd(x); }
  HERO_TILE_TARGET static reg mul(reg a, reg b) { return _mm512_mul_pd(a, b); }
  HERO_TILE_TARGET static reg add(reg a, reg b) { return _mm512_add_pd(a, b); }
  HERO_TILE_TARGET static reg fma(reg a, reg b, reg c) {
    return _mm512_fmadd_pd(a, b, c);
  }
  HERO_TILE_TARGET static mask first_lanes(std::size_t n) {
    return static_cast<mask>((1u << n) - 1u);
  }
};
#include "nn/register_tile.inc"
}  // namespace avx512
#undef HERO_TILE_TARGET

#endif

}  // namespace

namespace kernels {

std::span<const KernelSet> kernel_sets() {
#if HERO_KERNEL_DISPATCH
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  static const KernelSet sets[] = {
      {"base", false, true, mm_accum_base, mm_transA_accum_base, mm_transB_base,
       mm_affine_base},
      {"avx2", true, avx2, mm_accum_avx2, avx2::transA_accum_tiled, mm_transB_avx2,
       avx2::affine_tiled},
      // AVX-512 widens the tiles; the other two kernels are the AVX2 ones.
      {"avx512", true, avx2 && __builtin_cpu_supports("avx512f"), mm_accum_avx2,
       avx512::transA_accum_tiled, mm_transB_avx2, avx512::affine_tiled},
  };
#else
  static const KernelSet sets[] = {
      {"base", false, true, mm_accum_base, mm_transA_accum_base, mm_transB_base,
       mm_affine_base},
  };
#endif
  return sets;
}

const KernelSet& active_kernels() {
  static const KernelSet& active = [] () -> const KernelSet& {
    const std::span<const KernelSet> sets = kernel_sets();
    std::size_t best = 0;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (sets[i].supported) best = i;
    }
    return sets[best];
  }();
  return active;
}

}  // namespace kernels

Matrix Matrix::row(const std::vector<double>& v) {
  Matrix m(1, v.size());
  std::copy(v.begin(), v.end(), m.data_.begin());
  return m;
}

Matrix Matrix::stack_rows(const std::vector<std::vector<double>>& rows) {
  HERO_CHECK(!rows.empty());
  const std::size_t n = rows.front().size();
  Matrix m(rows.size(), n);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    HERO_CHECK_MSG(rows[r].size() == n, "stack_rows: ragged input at row " << r);
    std::copy(rows[r].begin(), rows[r].end(), m.data_.begin() + r * n);
  }
  return m;
}

Matrix Matrix::xavier(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const double bound = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (auto& v : m.data_) v = rng.uniform(-bound, bound);
  return m;
}

std::vector<double> Matrix::row_vec(std::size_t r) const {
  HERO_CHECK(r < rows_);
  return std::vector<double>(data_.begin() + r * cols_, data_.begin() + (r + 1) * cols_);
}

void Matrix::set_row(std::size_t r, const std::vector<double>& v) {
  HERO_CHECK(r < rows_ && v.size() == cols_);
  std::copy(v.begin(), v.end(), data_.begin() + r * cols_);
}

Matrix Matrix::matmul(const Matrix& other) const {
  Matrix out;
  matmul_into(other, out);
  return out;
}

void Matrix::matmul_into(const Matrix& other, Matrix& out, bool accumulate) const {
  HERO_CHECK_MSG(cols_ == other.rows_, "matmul shape mismatch: (" << rows_ << "x" << cols_
                                        << ") * (" << other.rows_ << "x" << other.cols_
                                        << ")");
  HERO_CHECK_MSG(&out != this && &out != &other, "matmul_into: out aliases an operand");
  if (accumulate) {
    HERO_CHECK(out.rows_ == rows_ && out.cols_ == other.cols_);
  } else {
    out.resize(rows_, other.cols_);
    out.fill(0.0);
  }
  kernels::active_kernels().accum(data(), rows_, cols_, other.data(), other.cols_,
                                  out.data());
}

void Matrix::matmul_transA_into(const Matrix& other, Matrix& out,
                                bool accumulate) const {
  HERO_CHECK_MSG(rows_ == other.rows_, "matmul_transA shape mismatch: ("
                                           << rows_ << "x" << cols_ << ")ᵀ * ("
                                           << other.rows_ << "x" << other.cols_ << ")");
  HERO_CHECK_MSG(&out != this && &out != &other,
                 "matmul_transA_into: out aliases an operand");
  if (accumulate) {
    HERO_CHECK(out.rows_ == cols_ && out.cols_ == other.cols_);
  } else {
    out.resize(cols_, other.cols_);
    out.fill(0.0);
  }
  kernels::active_kernels().transA_accum(data(), rows_, cols_, other.data(), other.cols_,
                                         out.data());
}

void Matrix::matmul_transB_into(const Matrix& other, Matrix& out,
                                bool accumulate) const {
  HERO_CHECK_MSG(cols_ == other.cols_, "matmul_transB shape mismatch: ("
                                           << rows_ << "x" << cols_ << ") * ("
                                           << other.rows_ << "x" << other.cols_ << ")ᵀ");
  HERO_CHECK_MSG(&out != this && &out != &other,
                 "matmul_transB_into: out aliases an operand");
  if (accumulate) {
    HERO_CHECK(out.rows_ == rows_ && out.cols_ == other.rows_);
  } else {
    out.resize(rows_, other.rows_);
  }
  kernels::active_kernels().transB(data(), rows_, cols_, other.data(), other.rows_,
                                   out.data(), accumulate);
}

void Matrix::affine_into(const Matrix& w, const Matrix& bias, Matrix& out) const {
  HERO_CHECK_MSG(cols_ == w.rows_, "affine shape mismatch: (" << rows_ << "x" << cols_
                                    << ") * (" << w.rows_ << "x" << w.cols_ << ")");
  HERO_CHECK(bias.rows_ == 1 && bias.cols_ == w.cols_);
  HERO_CHECK_MSG(&out != this && &out != &w && &out != &bias,
                 "affine_into: out aliases an operand");
  out.resize(rows_, w.cols_);
  kernels::active_kernels().affine(data(), rows_, cols_, w.data(), w.cols_, bias.data(),
                                   out.data());
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

void Matrix::hcat_into(const Matrix& other, Matrix& out) const {
  HERO_CHECK(rows_ == other.rows_);
  HERO_CHECK_MSG(&out != this && &out != &other, "hcat_into: out aliases an operand");
  out.resize(rows_, cols_ + other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double* orow = out.row_ptr(i);
    std::copy(row_ptr(i), row_ptr(i) + cols_, orow);
    std::copy(other.row_ptr(i), other.row_ptr(i) + other.cols_, orow + cols_);
  }
}

Matrix Matrix::hcat(const Matrix& other) const {
  Matrix out;
  hcat_into(other, out);
  return out;
}

void Matrix::col_slice_into(std::size_t c0, std::size_t c1, Matrix& out,
                            bool accumulate) const {
  HERO_CHECK(c0 <= c1 && c1 <= cols_);
  HERO_CHECK_MSG(&out != this, "col_slice_into: out aliases the source");
  const std::size_t n = c1 - c0;
  if (accumulate) {
    HERO_CHECK(out.rows_ == rows_ && out.cols_ == n);
  } else {
    out.resize(rows_, n);
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* src = row_ptr(i) + c0;
    double* dst = out.row_ptr(i);
    if (accumulate) {
      for (std::size_t j = 0; j < n; ++j) dst[j] += src[j];
    } else {
      std::copy(src, src + n, dst);
    }
  }
}

Matrix Matrix::col_slice(std::size_t c0, std::size_t c1) const {
  Matrix out;
  col_slice_into(c0, c1, out);
  return out;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  HERO_CHECK(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  HERO_CHECK(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix Matrix::operator+(const Matrix& o) const {
  Matrix r = *this;
  r += o;
  return r;
}

Matrix Matrix::operator-(const Matrix& o) const {
  Matrix r = *this;
  r -= o;
  return r;
}

Matrix Matrix::operator*(double s) const {
  Matrix r = *this;
  r *= s;
  return r;
}

Matrix Matrix::hadamard(const Matrix& o) const {
  HERO_CHECK(same_shape(o));
  Matrix r = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) r.data_[i] *= o.data_[i];
  return r;
}

double Matrix::sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::abs_max() const {
  double s = 0.0;
  for (double v : data_) s = std::max(s, std::abs(v));
  return s;
}

bool Matrix::all_finite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

void Matrix::check_finite(const char* what) const {
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (!std::isfinite(data_[i])) [[unlikely]] {
      std::ostringstream os;
      os << what << ": non-finite value " << data_[i] << " at ("
         << i / std::max<std::size_t>(cols_, 1) << ", "
         << i % std::max<std::size_t>(cols_, 1) << ") of " << rows_ << "x" << cols_
         << " matrix";
      check_failed("all_finite()", __FILE__, __LINE__, os.str());
    }
  }
}

}  // namespace hero::nn
