// Equivalence tests for the fused zero-allocation kernels against naive
// reference implementations, plus an end-to-end check that the
// workspace-based Mlp forward/backward matches a hand-rolled reference
// network built from the same weights. Tolerances are 1e-12: the fused
// kernels must be numerically equivalent, not merely close.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "nn/grad_check.h"
#include "nn/kernels.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "nn/mlp.h"
#include "support/nn_kernel_oracle.h"

namespace hero::nn {
namespace {

constexpr double kTol = 1e-12;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal(0.0, 1.0);
  }
  return m;
}

void expect_near(const Matrix& a, const Matrix& b, double tol = kTol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a(i, j), b(i, j), tol) << "at (" << i << ", " << j << ")";
    }
  }
}

// ------------------------------------------------------ fused kernels ----

TEST(FusedKernels, MatmulIntoMatchesMatmul) {
  Rng rng(7);
  Matrix a = random_matrix(5, 9, rng);
  Matrix b = random_matrix(9, 4, rng);
  Matrix out;
  a.matmul_into(b, out);
  expect_near(out, a.matmul(b));
}

TEST(FusedKernels, MatmulIntoAccumulates) {
  Rng rng(7);
  Matrix a = random_matrix(3, 6, rng);
  Matrix b = random_matrix(6, 5, rng);
  Matrix seed = random_matrix(3, 5, rng);
  Matrix out = seed;
  a.matmul_into(b, out, /*accumulate=*/true);
  expect_near(out, seed + a.matmul(b));
}

TEST(FusedKernels, MatmulTransAIntoMatchesExplicitTranspose) {
  Rng rng(11);
  Matrix a = random_matrix(8, 3, rng);  // (m, k): contract over m
  Matrix b = random_matrix(8, 5, rng);  // (m, n)
  Matrix out;
  a.matmul_transA_into(b, out);
  expect_near(out, a.transpose().matmul(b));
}

TEST(FusedKernels, MatmulTransAIntoAccumulates) {
  Rng rng(11);
  Matrix a = random_matrix(6, 4, rng);
  Matrix b = random_matrix(6, 2, rng);
  Matrix seed = random_matrix(4, 2, rng);
  Matrix out = seed;
  a.matmul_transA_into(b, out, /*accumulate=*/true);
  expect_near(out, seed + a.transpose().matmul(b));
}

TEST(FusedKernels, MatmulTransBIntoMatchesExplicitTranspose) {
  Rng rng(13);
  Matrix a = random_matrix(7, 4, rng);  // (m, k)
  Matrix b = random_matrix(5, 4, rng);  // (n, k): contract over k
  Matrix out;
  a.matmul_transB_into(b, out);
  expect_near(out, a.matmul(b.transpose()));
}

TEST(FusedKernels, MatmulTransBIntoAccumulates) {
  Rng rng(13);
  Matrix a = random_matrix(4, 6, rng);
  Matrix b = random_matrix(3, 6, rng);
  Matrix seed = random_matrix(4, 3, rng);
  Matrix out = seed;
  a.matmul_transB_into(b, out, /*accumulate=*/true);
  expect_near(out, seed + a.matmul(b.transpose()));
}

TEST(FusedKernels, AffineIntoMatchesMatmulPlusBias) {
  Rng rng(17);
  Matrix x = random_matrix(6, 5, rng);
  Matrix w = random_matrix(5, 3, rng);
  Matrix bias = random_matrix(1, 3, rng);
  Matrix out;
  x.affine_into(w, bias, out);
  Matrix ref = x.matmul(w);
  for (std::size_t i = 0; i < ref.rows(); ++i) {
    for (std::size_t j = 0; j < ref.cols(); ++j) ref(i, j) += bias(0, j);
  }
  expect_near(out, ref);
}

TEST(FusedKernels, AffineIntoIsRowPositionInvariant) {
  // The serving stack's bitwise batched-equals-sequential guarantee
  // (docs/SERVING.md) rests on this kernel property: a row's result must not
  // depend on the batch size or on where the row sits in the batch. Exact
  // bit equality, no tolerance — any change to mm_affine's accumulation
  // order or blocking that breaks this is a serving-correctness bug even if
  // it is numerically tiny.
  Rng rng(23);
  // Odd k and n exercise both the blocked loops and their scalar tails.
  const std::size_t k = 37, n = 13;
  Matrix big = random_matrix(16, k, rng);
  Matrix w = random_matrix(k, n, rng);
  Matrix bias = random_matrix(1, n, rng);
  Matrix big_out;
  big.affine_into(w, bias, big_out);

  for (std::size_t rows : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    for (std::size_t start = 0; start + rows <= big.rows(); start += rows) {
      Matrix sub(rows, k);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < k; ++j) sub(i, j) = big(start + i, j);
      }
      Matrix sub_out;
      sub.affine_into(w, bias, sub_out);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_EQ(sub_out(i, j), big_out(start + i, j))
              << "rows=" << rows << " start=" << start << " (" << i << ", "
              << j << ")";
        }
      }
    }
  }
}

TEST(FusedKernels, HcatIntoMatchesHcat) {
  Rng rng(19);
  Matrix a = random_matrix(4, 3, rng);
  Matrix b = random_matrix(4, 5, rng);
  Matrix out;
  a.hcat_into(b, out);
  expect_near(out, a.hcat(b));
}

TEST(FusedKernels, ColSliceIntoMatchesColSlice) {
  Rng rng(23);
  Matrix a = random_matrix(4, 8, rng);
  Matrix out;
  a.col_slice_into(2, 6, out);
  expect_near(out, a.col_slice(2, 6));
  Matrix seed = random_matrix(4, 4, rng);
  Matrix acc = seed;
  a.col_slice_into(2, 6, acc, /*accumulate=*/true);
  expect_near(acc, seed + a.col_slice(2, 6));
}

TEST(FusedKernels, ResizeKeepsCapacityAcrossShrinkGrow) {
  Matrix m(8, 8, 1.0);
  const double* before = m.data();
  m.resize(4, 4);
  m.resize(8, 8);
  EXPECT_EQ(m.data(), before);  // capacity (and storage) retained
}

// ------------------------------------------ bitwise op sequences ----

// Index of the first element whose bits differ, or -1.
long first_mismatch(const double* got, const double* want, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) != std::bit_cast<std::uint64_t>(want[i])) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

// Every kernel variant this host can run must reproduce the scalar oracle's
// per-element IEEE sequence bit for bit (tests/support/nn_kernel_oracle.h).
// The oracle states the sequences of the kernels that produced the committed
// checkpoints and digests, so a kernel rewrite passes only if it leaves
// every weight where the old kernels put it. The n values cover each
// column tail (n mod 4), each register-tile width up to 32 and the chunk
// boundaries past it; m = 1 is serving a batch of one, n = 1 a critic head.
TEST(FusedKernels, MatchParentOpSequence) {
  constexpr std::size_t kMaxM = 70, kMaxK = 45;
  const std::vector<std::size_t> widths = {1,  2,  3,  4,  5,  6,  7,  8,
                                           9,  12, 15, 16, 17, 24, 25, 31,
                                           32, 33, 36, 40, 47, 64, 65};
  std::vector<const kernels::KernelSet*> sets;
  for (const kernels::KernelSet& set : kernels::kernel_sets()) {
#if defined(__FMA__)
    // -march=native lets the compiler contract the baseline loops, so their
    // sequence is the compiler's choice there.
    if (!set.fma) continue;
#endif
    if (set.supported) {
      sets.push_back(&set);
    } else {
      std::printf("skipping %s kernels: this CPU lacks the instructions\n", set.isa);
    }
  }
  ASSERT_FALSE(sets.empty());

  Rng rng(61);
  std::vector<double> want, want_b, want_acc, want_blocks, want_ga, out;
  for (std::size_t k = 1; k <= kMaxK; ++k) {
    for (std::size_t n : widths) {
      const Matrix a = random_matrix(kMaxM, k, rng);
      const Matrix w = random_matrix(k, n, rng);
      const Matrix bias = random_matrix(1, n, rng);
      const Matrix wt = random_matrix(n, k, rng);
      const Matrix dy = random_matrix(kMaxM, n, rng);
      const Matrix o0 = random_matrix(kMaxM, n, rng);
      const Matrix g0 = random_matrix(k, n, rng);
      for (const oracle::Seq seq : {oracle::Seq::kBase, oracle::Seq::kFma}) {
        // Row-local kernels (affine, transB) give row i the same bits at
        // every m, so one oracle run over kMaxM rows covers every m.
        want.resize(kMaxM * n);
        oracle::affine(seq, a.data(), kMaxM, k, w.data(), n, bias.data(), want.data());
        want_b.resize(kMaxM * n);
        oracle::transB(seq, a.data(), kMaxM, k, wt.data(), n, want_b.data(), false);
        want_acc.assign(o0.data(), o0.data() + kMaxM * n);
        oracle::transB(seq, a.data(), kMaxM, k, wt.data(), n, want_acc.data(), true);
        // transA contracts over m, so each m has its own answer. The oracle
        // folds rows in 4-blocks from row 0, so the answer for m continues
        // the one for 4·⌊m/4⌋ rows with the leftover rows.
        want_blocks.assign(g0.data(), g0.data() + k * n);
        for (std::size_t m = 1; m <= kMaxM; ++m) {
          const std::size_t base = m - m % 4;
          want_ga = want_blocks;
          oracle::transA_accum(seq, a.row_ptr(base), m - base, k, dy.row_ptr(base), n,
                               want_ga.data());
          if (m % 4 == 3) {
            oracle::transA_accum(seq, a.row_ptr(base), 4, k, dy.row_ptr(base), n,
                                 want_blocks.data());
          }
          for (const kernels::KernelSet* set : sets) {
            if ((set->fma ? oracle::Seq::kFma : oracle::Seq::kBase) != seq) continue;
            const auto shape = [&](const char* kernel) {
              return std::string(set->isa) + " " + kernel + " m=" + std::to_string(m) +
                     " k=" + std::to_string(k) + " n=" + std::to_string(n);
            };
            out.assign(m * n, 0.0);
            set->affine(a.data(), m, k, w.data(), n, bias.data(), out.data());
            ASSERT_EQ(first_mismatch(out.data(), want.data(), m * n), -1)
                << shape("affine");
            set->transB(a.data(), m, k, wt.data(), n, out.data(), false);
            ASSERT_EQ(first_mismatch(out.data(), want_b.data(), m * n), -1)
                << shape("transB");
            out.assign(o0.data(), o0.data() + m * n);
            set->transB(a.data(), m, k, wt.data(), n, out.data(), true);
            ASSERT_EQ(first_mismatch(out.data(), want_acc.data(), m * n), -1)
                << shape("transB accumulate");
            out.assign(g0.data(), g0.data() + k * n);
            set->transA_accum(a.data(), m, k, dy.data(), n, out.data());
            ASSERT_EQ(first_mismatch(out.data(), want_ga.data(), k * n), -1)
                << shape("transA");
          }
        }
      }
    }
  }
}

// ------------------------------------------- Linear fused backward ----

TEST(FusedKernels, LinearBackwardMatchesReferenceContractions) {
  Rng rng(29);
  Linear layer(5, 4, rng);
  Matrix x = random_matrix(6, 5, rng);
  Matrix y, grad_in;
  layer.forward_into(x, y);
  Matrix grad_out = random_matrix(6, 4, rng);
  auto refs = layer.params();
  ASSERT_EQ(refs.size(), 2u);
  for (auto& p : refs) p.grad->fill(0.0);
  layer.backward_into(x, y, grad_out, grad_in);

  // dW = xᵀ·dy, db = column-sum(dy), dx = dy·Wᵀ.
  Matrix dw_ref = x.transpose().matmul(grad_out);
  Matrix dx_ref = grad_out.matmul(layer.weight().transpose());
  expect_near(*refs[0].grad, dw_ref);
  for (std::size_t j = 0; j < 4; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < 6; ++i) s += grad_out(i, j);
    EXPECT_NEAR((*refs[1].grad)(0, j), s, kTol);
  }
  expect_near(grad_in, dx_ref);
}

// ------------------------------------------------ Mlp equivalence ----

// Reference forward/backward composed from value-returning ops on the same
// weights (ReLU hidden activations, identity output — the Mlp default).
struct RefPass {
  std::vector<Matrix> z;   // pre-activations per linear layer
  std::vector<Matrix> a;   // post-activations (a[0] = input)
  Matrix out;
};

RefPass ref_forward(Mlp& net, const Matrix& x) {
  auto& ps = net.params();
  RefPass p;
  p.a.push_back(x);
  const std::size_t n_linear = ps.size() / 2;
  for (std::size_t l = 0; l < n_linear; ++l) {
    const Matrix& w = *ps[2 * l].value;
    const Matrix& b = *ps[2 * l + 1].value;
    Matrix z = p.a.back().matmul(w);
    for (std::size_t i = 0; i < z.rows(); ++i) {
      for (std::size_t j = 0; j < z.cols(); ++j) z(i, j) += b(0, j);
    }
    p.z.push_back(z);
    if (l + 1 < n_linear) {
      p.a.push_back(z.map([](double v) { return v > 0.0 ? v : 0.0; }));
    } else {
      p.out = z;
    }
  }
  return p;
}

// Returns dL/dx; fills dw/db with parameter grads.
Matrix ref_backward(Mlp& net, const RefPass& p, const Matrix& grad_out,
                    std::vector<Matrix>& dw, std::vector<Matrix>& db) {
  auto& ps = net.params();
  const std::size_t n_linear = ps.size() / 2;
  dw.assign(n_linear, {});
  db.assign(n_linear, {});
  Matrix g = grad_out;
  for (std::size_t l = n_linear; l-- > 0;) {
    const Matrix& w = *ps[2 * l].value;
    dw[l] = p.a[l].transpose().matmul(g);
    db[l].resize(1, g.cols());
    for (std::size_t j = 0; j < g.cols(); ++j) {
      double s = 0.0;
      for (std::size_t i = 0; i < g.rows(); ++i) s += g(i, j);
      db[l](0, j) = s;
    }
    g = g.matmul(w.transpose());
    if (l > 0) {
      const Matrix& z = p.z[l - 1];
      for (std::size_t i = 0; i < g.rows(); ++i) {
        for (std::size_t j = 0; j < g.cols(); ++j) {
          if (z(i, j) <= 0.0) g(i, j) = 0.0;
        }
      }
    }
  }
  return g;
}

TEST(MlpEquivalence, ForwardMatchesReference) {
  Rng rng(31);
  Mlp net(6, {8, 8}, 3, rng);
  Matrix x = random_matrix(5, 6, rng);
  const Matrix& y = net.forward(x);
  RefPass ref = ref_forward(net, x);
  expect_near(y, ref.out);
}

TEST(MlpEquivalence, BackwardMatchesReference) {
  Rng rng(37);
  Mlp net(6, {8, 8}, 3, rng);
  Matrix x = random_matrix(5, 6, rng);
  Matrix grad_out = random_matrix(5, 3, rng);

  net.forward(x);
  net.zero_grad();
  Matrix grad_in = net.backward(grad_out);  // copy out of the workspace

  RefPass ref = ref_forward(net, x);
  std::vector<Matrix> dw, db;
  Matrix ref_gin = ref_backward(net, ref, grad_out, dw, db);

  expect_near(grad_in, ref_gin);
  auto& ps = net.params();
  for (std::size_t l = 0; l < dw.size(); ++l) {
    expect_near(*ps[2 * l].grad, dw[l]);
    expect_near(*ps[2 * l + 1].grad, db[l]);
  }
}

TEST(MlpEquivalence, BackwardInputMatchesBackwardAndSkipsParamGrads) {
  Rng rng(53);
  Mlp net(6, {8, 8}, 3, rng);
  Matrix x = random_matrix(5, 6, rng);
  Matrix grad_out = random_matrix(5, 3, rng);

  net.forward(x);
  net.zero_grad();
  Matrix full_gin = net.backward(grad_out);  // copy out of the workspace

  net.forward(x);
  net.zero_grad();
  Matrix input_only_gin = net.backward_input(grad_out);

  // Same dL/d(input), bit-for-bit (identical kernel, identical inputs)...
  expect_near(input_only_gin, full_gin, 0.0);
  // ...and the parameter gradients stay exactly zero.
  for (auto p : net.params()) {
    for (std::size_t k = 0; k < p.grad->size(); ++k) {
      EXPECT_EQ(p.grad->data()[k], 0.0);
    }
  }
}

TEST(MlpEquivalence, RepeatedCallsAreDeterministic) {
  Rng rng(41);
  Mlp net(4, {8}, 2, rng);
  Matrix big = random_matrix(16, 4, rng);
  Matrix small = random_matrix(3, 4, rng);
  Matrix first = net.forward(small);  // copy
  net.forward(big);                   // grow workspace
  const Matrix& again = net.forward(small);  // shrink back in place
  expect_near(again, first, 0.0);
}

TEST(MlpEquivalence, FusedPathPassesGradientCheck) {
  Rng rng(43);
  Mlp net(5, {8}, 3, rng);
  Matrix x = random_matrix(4, 5, rng);
  Matrix target = random_matrix(4, 3, rng);
  Matrix grad;
  net.zero_grad();
  mse_loss_into(net.forward(x), target, grad);
  net.backward(grad);
  const double err = max_param_grad_error(
      net, [&] { return mse_loss(net.forward(x), target).loss; });
  EXPECT_LT(err, 1e-5);
}

}  // namespace
}  // namespace hero::nn
