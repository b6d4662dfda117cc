// Dense row-major matrix of doubles — the single tensor type of the NN
// library. Shapes in this codebase are tiny (hidden width 32, batch ≤ 1024),
// so the library carries its own kernels instead of a BLAS: loop bodies for
// baseline x86-64, register tiles for AVX2 and AVX-512 (nn/kernels.h). Each
// fixes every output element's FP operation sequence, and the AVX2 and
// AVX-512 builds share theirs (docs/PERFORMANCE.md §Fused kernels).
//
// Convention used throughout: activations are (batch, features); a Linear
// layer stores its weight as (in, out) so that forward is `x * W + b`.
//
// Two kernel families coexist:
//   * value-returning ops (matmul, transpose, hcat, ...) — convenient, they
//     allocate their result;
//   * `*_into` ops — the hot path. They write into a caller-owned output
//     matrix, resizing it without releasing capacity, so steady-state calls
//     with stable shapes perform zero heap allocations. The transposed
//     variants (`matmul_transA_into`, `matmul_transB_into`) contract against
//     A or B transposed *without materializing the transpose*, which is what
//     makes Linear::backward allocation- and copy-free.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace hero::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  // 1×n row vector from a list / std::vector.
  static Matrix row(const std::vector<double>& v);
  static Matrix row(std::initializer_list<double> v) {
    return row(std::vector<double>(v));
  }

  // Stacks equal-length rows into a (rows.size(), n) matrix.
  static Matrix stack_rows(const std::vector<std::vector<double>>& rows);

  // Xavier/Glorot-uniform initialization for a (rows, cols) weight.
  static Matrix xavier(std::size_t rows, std::size_t cols, Rng& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  // Reshapes to (rows, cols). Existing element values are NOT preserved
  // across a reshape; capacity is never released, so repeated resizes to the
  // same (or smaller) shape are allocation-free.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  // Resizes to src's shape and copies its contents (no allocation once
  // capacity suffices).
  void copy_from(const Matrix& src) {
    if (this == &src) return;
    resize(src.rows_, src.cols_);
    std::copy(src.data_.begin(), src.data_.end(), data_.begin());
  }

  double& at(std::size_t r, std::size_t c) {
    HERO_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const {
    HERO_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  // Unchecked fast path for inner loops.
  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row_ptr(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_ptr(std::size_t r) const { return data_.data() + r * cols_; }

  // Extracts row r as a std::vector (copies).
  std::vector<double> row_vec(std::size_t r) const;
  // Overwrites row r.
  void set_row(std::size_t r, const std::vector<double>& v);

  // this (m×k) * other (k×n) -> (m×n).
  Matrix matmul(const Matrix& other) const;
  Matrix transpose() const;

  // ----- fused zero-allocation kernels ------------------------------------
  // All `*_into` kernels resize `out` to the result shape; `out` must not
  // alias either operand. With accumulate=true the product is added to the
  // existing contents of `out` (which must already have the result shape).

  // out (m×n) = this (m×k) · other (k×n).
  void matmul_into(const Matrix& other, Matrix& out, bool accumulate = false) const;
  // out (k×n) = thisᵀ · other, with this (m×k), other (m×n). Transpose-free:
  // reads A row-major, accumulating rank-1 updates — the Linear weight
  // gradient dW += xᵀ·dy without materializing xᵀ.
  void matmul_transA_into(const Matrix& other, Matrix& out,
                          bool accumulate = false) const;
  // out (m×n) = this · otherᵀ, with this (m×k), other (n×k). Row-dot-row —
  // the Linear input gradient dx = dy·Wᵀ without materializing Wᵀ.
  void matmul_transB_into(const Matrix& other, Matrix& out,
                          bool accumulate = false) const;
  // Fused affine: out = this · w + bias, bias a (1×n) row broadcast over the
  // batch. One pass, no intermediate.
  void affine_into(const Matrix& w, const Matrix& bias, Matrix& out) const;

  // out = [this | other] (matching row counts).
  void hcat_into(const Matrix& other, Matrix& out) const;
  // out = columns [c0, c1) of this.
  void col_slice_into(std::size_t c0, std::size_t c1, Matrix& out,
                      bool accumulate = false) const;

  // Horizontal concatenation: [this | other], matching row counts.
  Matrix hcat(const Matrix& other) const;
  // Columns [c0, c1) as a new matrix.
  Matrix col_slice(std::size_t c0, std::size_t c1) const;

  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(double s);
  Matrix operator+(const Matrix& o) const;
  Matrix operator-(const Matrix& o) const;
  Matrix operator*(double s) const;

  // Elementwise product (Hadamard).
  Matrix hadamard(const Matrix& o) const;

  // Applies f to every element in place; returns *this. Templated so the
  // compiler inlines the functor — no std::function dispatch per element.
  template <class F>
  Matrix& apply(F&& f) {
    for (auto& v : data_) v = f(v);
    return *this;
  }
  // Applied copy.
  template <class F>
  Matrix map(F&& f) const {
    Matrix r = *this;
    r.apply(std::forward<F>(f));
    return r;
  }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }
  double sum() const;
  double abs_max() const;

  bool same_shape(const Matrix& o) const { return rows_ == o.rows_ && cols_ == o.cols_; }

  // ----- finite guards (docs/CORRECTNESS.md) ------------------------------
  // True iff every element is neither NaN nor infinite.
  bool all_finite() const;
  // Throws std::logic_error naming `what`, the offending (row, col) and its
  // value if any element is non-finite. Call sites on hot paths wrap this in
  // HERO_DCHECK_FINITE so release builds pay nothing.
  void check_finite(const char* what) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace hero::nn

// Debug-only NaN/inf sweep of a whole matrix — the workhorse of the finite-
// guard layer. Expands to nothing unless HERO_DEBUG_CHECKS is on.
#if HERO_DEBUG_CHECKS_ENABLED
#define HERO_DCHECK_FINITE(m, what) (m).check_finite(what)
#else
#define HERO_DCHECK_FINITE(m, what) \
  do {                              \
  } while (0)
#endif
