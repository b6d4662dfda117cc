// Unit tests for the NN library: matrix kernels, layer gradients (finite
// differences), losses, optimizers, serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <sstream>
#include <utility>

#include "nn/grad_check.h"
#include "nn/losses.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/phase.h"

namespace hero::nn {
namespace {

// -------------------------------------------------------------- Matrix ----

TEST(Matrix, MatmulKnownValues) {
  Matrix a(2, 3);
  // [1 2 3; 4 5 6]
  double av[] = {1, 2, 3, 4, 5, 6};
  std::copy(av, av + 6, a.data());
  Matrix b(3, 2);
  double bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(bv, bv + 6, b.data());
  Matrix c = a.matmul(b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 2);
  EXPECT_THROW(a.matmul(b), std::logic_error);
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(1);
  Matrix a = Matrix::xavier(3, 5, rng);
  Matrix t = a.transpose().transpose();
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(a(i, j), t(i, j));
}

TEST(Matrix, HcatAndColSlice) {
  Matrix a = Matrix::row({1, 2});
  Matrix b = Matrix::row({3, 4, 5});
  Matrix c = a.hcat(b);
  ASSERT_EQ(c.cols(), 5u);
  EXPECT_DOUBLE_EQ(c(0, 2), 3);
  Matrix s = c.col_slice(2, 5);
  EXPECT_EQ(s.cols(), 3u);
  EXPECT_DOUBLE_EQ(s(0, 0), 3);
  EXPECT_DOUBLE_EQ(s(0, 2), 5);
}

TEST(Matrix, StackRowsRejectsRagged) {
  EXPECT_THROW(Matrix::stack_rows({{1.0, 2.0}, {3.0}}), std::logic_error);
}

TEST(Matrix, ArithmeticOps) {
  Matrix a = Matrix::row({1, 2});
  Matrix b = Matrix::row({3, 5});
  EXPECT_DOUBLE_EQ((a + b)(0, 1), 7);
  EXPECT_DOUBLE_EQ((b - a)(0, 0), 2);
  EXPECT_DOUBLE_EQ((a * 2.0)(0, 1), 4);
  EXPECT_DOUBLE_EQ(a.hadamard(b)(0, 1), 10);
  EXPECT_DOUBLE_EQ(b.sum(), 8);
  EXPECT_DOUBLE_EQ(b.abs_max(), 5);
}

TEST(Matrix, XavierWithinBound) {
  Rng rng(2);
  Matrix w = Matrix::xavier(10, 20, rng);
  const double bound = std::sqrt(6.0 / 30.0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::abs(w.data()[i]), bound);
  }
}

// ------------------------------------------------------- gradient checks --

TEST(MlpGradients, MseLossFiniteDifference) {
  Rng rng(3);
  Mlp net(4, {8, 8}, 3, rng);
  Matrix x = Matrix::xavier(5, 4, rng);
  Matrix target = Matrix::xavier(5, 3, rng);

  auto loss_fn = [&]() { return mse_loss(net.forward(x), target).loss; };
  net.zero_grad();
  auto loss = mse_loss(net.forward(x), target);
  net.backward(loss.grad);
  EXPECT_LT(max_param_grad_error(net, loss_fn), 1e-5);
}

TEST(MlpGradients, TanhActivationFiniteDifference) {
  Rng rng(4);
  Mlp net(3, {6}, 2, rng, Activation::kTanh, Activation::kTanh);
  Matrix x = Matrix::xavier(4, 3, rng);
  Matrix target(4, 2, 0.3);

  auto loss_fn = [&]() { return mse_loss(net.forward(x), target).loss; };
  net.zero_grad();
  auto loss = mse_loss(net.forward(x), target);
  net.backward(loss.grad);
  EXPECT_LT(max_param_grad_error(net, loss_fn), 1e-5);
}

TEST(MlpGradients, SoftmaxCrossEntropyFiniteDifference) {
  Rng rng(5);
  Mlp net(4, {8}, 5, rng);
  Matrix x = Matrix::xavier(6, 4, rng);
  std::vector<std::size_t> targets = {0, 1, 2, 3, 4, 2};

  auto loss_fn = [&]() {
    return softmax_cross_entropy(net.forward(x), targets).loss;
  };
  net.zero_grad();
  auto loss = softmax_cross_entropy(net.forward(x), targets);
  net.backward(loss.grad);
  EXPECT_LT(max_param_grad_error(net, loss_fn), 1e-5);
}

TEST(MlpGradients, SelectedMseFiniteDifference) {
  Rng rng(6);
  Mlp net(3, {8}, 4, rng);
  Matrix x = Matrix::xavier(5, 3, rng);
  std::vector<std::size_t> cols = {0, 3, 1, 2, 0};
  std::vector<double> targets = {0.1, -0.5, 2.0, 0.0, 1.0};

  auto loss_fn = [&]() {
    return mse_loss_selected(net.forward(x), cols, targets).loss;
  };
  net.zero_grad();
  auto loss = mse_loss_selected(net.forward(x), cols, targets);
  net.backward(loss.grad);
  EXPECT_LT(max_param_grad_error(net, loss_fn), 1e-5);
}

TEST(MlpGradients, InputGradientFiniteDifference) {
  // dL/d(input) must also be exact — the deterministic policy gradient and
  // SAC actor updates rely on it.
  Rng rng(7);
  Mlp net(4, {8}, 1, rng);
  Matrix x = Matrix::xavier(1, 4, rng);

  net.zero_grad();
  Matrix out = net.forward(x);
  Matrix dout(1, 1, 1.0);
  Matrix din = net.backward(dout);

  const double h = 1e-6;
  for (std::size_t j = 0; j < 4; ++j) {
    Matrix xp = x, xm = x;
    xp(0, j) += h;
    xm(0, j) -= h;
    const double numeric =
        (net.forward(xp)(0, 0) - net.forward(xm)(0, 0)) / (2 * h);
    EXPECT_NEAR(din(0, j), numeric, 1e-5);
  }
}

// -------------------------------------------------------------- losses ----

TEST(Losses, SoftmaxRowsSumToOne) {
  Rng rng(8);
  Matrix logits = Matrix::xavier(4, 6, rng) * 10.0;
  Matrix p = softmax(logits);
  for (std::size_t i = 0; i < 4; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < 6; ++j) s += p(i, j);
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(Losses, SoftmaxStableForHugeLogits) {
  Matrix logits = Matrix::row({1000.0, 999.0, 0.0});
  Matrix p = softmax(logits);
  EXPECT_FALSE(std::isnan(p(0, 0)));
  EXPECT_GT(p(0, 0), p(0, 1));
  EXPECT_NEAR(p(0, 2), 0.0, 1e-12);
  Matrix lp = log_softmax(logits);
  EXPECT_FALSE(std::isnan(lp(0, 2)));
}

TEST(Losses, EntropyUniformIsLogN) {
  Matrix logits(1, 4, 0.0);
  auto ent = softmax_entropy(logits);
  EXPECT_NEAR(ent[0], std::log(4.0), 1e-12);
}

TEST(Losses, HuberMatchesMseInQuadraticRegion) {
  Matrix pred = Matrix::row({0.3});
  std::vector<std::size_t> cols = {0};
  std::vector<double> targets = {0.1};
  auto h = huber_loss_selected(pred, cols, targets, 1.0);
  // 0.5·d² with d = 0.2
  EXPECT_NEAR(h.loss, 0.5 * 0.04, 1e-12);
  EXPECT_NEAR(h.grad(0, 0), 0.2, 1e-12);
}

TEST(Losses, HuberLinearTail) {
  Matrix pred = Matrix::row({5.0});
  auto h = huber_loss_selected(pred, {0}, {0.0}, 1.0);
  EXPECT_NEAR(h.loss, 1.0 * (5.0 - 0.5), 1e-12);
  EXPECT_NEAR(h.grad(0, 0), 1.0, 1e-12);
}

TEST(Losses, WeightedCrossEntropyScales) {
  Matrix logits = Matrix::row({0.2, -0.1, 0.5});
  std::vector<std::size_t> t = {1};
  std::vector<double> w = {2.0};
  auto plain = softmax_cross_entropy(logits, t);
  auto weighted = softmax_cross_entropy(logits, t, &w);
  EXPECT_NEAR(weighted.loss, 2.0 * plain.loss, 1e-12);
}

// ----------------------------------------------------------- optimizers ---

TEST(Adam, MinimizesQuadratic) {
  // One 1×1 parameter, loss (w−3)².
  Matrix w(1, 1, 0.0), g(1, 1, 0.0);
  Adam opt({{&w, &g}}, 0.1);
  for (int i = 0; i < 500; ++i) {
    g(0, 0) = 2.0 * (w(0, 0) - 3.0);
    opt.step();
  }
  EXPECT_NEAR(w(0, 0), 3.0, 1e-2);
}

TEST(Adam, ZeroesGradAfterStep) {
  Matrix w(1, 1, 0.0), g(1, 1, 5.0);
  Adam opt({{&w, &g}}, 0.1);
  opt.step();
  EXPECT_DOUBLE_EQ(g(0, 0), 0.0);
}

TEST(Sgd, MomentumAccelerates) {
  Matrix w1(1, 1, 10.0), g1(1, 1, 0.0);
  Matrix w2(1, 1, 10.0), g2(1, 1, 0.0);
  Sgd plain({{&w1, &g1}}, 0.01, 0.0);
  Sgd mom({{&w2, &g2}}, 0.01, 0.9);
  for (int i = 0; i < 50; ++i) {
    g1(0, 0) = 2.0 * w1(0, 0);
    g2(0, 0) = 2.0 * w2(0, 0);
    plain.step();
    mom.step();
  }
  EXPECT_LT(std::abs(w2(0, 0)), std::abs(w1(0, 0)));
}

// ---------------------------------------------------------- activations ---

// ReLU is y = x > 0 ? x : +0 and dx = x > 0 ? g : +0. NaN and −0 inputs give
// +0 (never −0 or NaN), and the gradient passes through — NaN included —
// exactly where x > 0. Odd lengths cover the vector body and its remainder.
TEST(Activation, ReluKeepsNanAndSignedZeroSemantics) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> xs = {-0.0, nan, 2.5, -3.0, 0.0, inf, -inf, 1e-300, -1e-300};
  const std::vector<double> gs = {7.0, 7.0, nan, nan, 7.0, -4.0, 5.0, 6.0, nan};
  for (std::size_t len = 1; len <= xs.size(); ++len) {
    Matrix x(1, len), g(1, len), y, dx;
    std::copy(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(len), x.data());
    std::copy(gs.begin(), gs.begin() + static_cast<std::ptrdiff_t>(len), g.data());
    ReLU relu(len);
    relu.forward_into(x, y);
    relu.backward_into(x, y, g, dx);
    for (std::size_t i = 0; i < len; ++i) {
      const bool live = xs[i] > 0.0;
      const double want_y = live ? xs[i] : 0.0;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(y(0, i)),
                std::bit_cast<std::uint64_t>(want_y))
          << "forward of " << xs[i];
      if (live && std::isnan(gs[i])) {
        EXPECT_TRUE(std::isnan(dx(0, i))) << "backward at " << xs[i];
      } else {
        const double want_dx = live ? gs[i] : 0.0;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(dx(0, i)),
                  std::bit_cast<std::uint64_t>(want_dx))
            << "backward at " << xs[i];
      }
    }
  }
}

// ---------------------------------------------------------- observability ---

// Every backward entry point is one nn_backward phase and one
// nn.backward_calls count, so the per-layer breakdown sees all of them.
TEST(MlpObservability, EveryBackwardIsScopedAndCounted) {
  obs::set_metrics_enabled(true);
  obs::set_phases_enabled(true);
  Rng rng(71);
  Mlp net(5, {8}, 3, rng);
  Matrix x(4, 5, 0.5), dy(4, 3, 1.0);
  obs::Counter& calls = obs::Registry::instance().counter("nn.backward_calls");
  obs::Counter& rows = obs::Registry::instance().counter("nn.backward_rows");
  const std::pair<const char*, std::function<void()>> entries[] = {
      {"backward", [&] { net.backward(dy); }},
      {"backward_params", [&] { net.backward_params(dy); }},
      {"backward_input", [&] { net.backward_input(dy); }},
  };
  for (const auto& [name, run] : entries) {
    net.forward(x);
    obs::PhaseRegistry::instance().reset();
    const long long calls0 = calls.value(), rows0 = rows.value();
    run();
    const auto stats = obs::PhaseRegistry::instance().snapshot();
    const auto it = std::find_if(stats.begin(), stats.end(), [](const obs::PhaseStat& s) {
      return s.name == "nn_backward";
    });
    ASSERT_NE(it, stats.end()) << name;
    EXPECT_EQ(it->count, 1u) << name;
    EXPECT_EQ(calls.value(), calls0 + 1) << name;
    EXPECT_EQ(rows.value(), rows0 + 4) << name;
  }
  obs::set_metrics_enabled(false);
  obs::set_phases_enabled(false);
  obs::Registry::instance().reset_values();
  obs::PhaseRegistry::instance().reset();
}

// ------------------------------------------------------------ Mlp utils ---

TEST(Mlp, SoftUpdateInterpolates) {
  Rng rng(9);
  Mlp a(2, {4}, 1, rng), b(2, {4}, 1, rng);
  Mlp b0 = b;
  b.soft_update_from(a, 0.25);
  auto pa = a.params();
  auto pb = b.params();
  auto pb0 = b0.params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t k = 0; k < pa[i].value->size(); ++k) {
      const double expected = 0.25 * pa[i].value->data()[k] +
                              0.75 * pb0[i].value->data()[k];
      EXPECT_NEAR(pb[i].value->data()[k], expected, 1e-12);
    }
  }
}

TEST(Mlp, CopyIsDeep) {
  Rng rng(10);
  Mlp a(2, {4}, 1, rng);
  Mlp b = a;
  const std::vector<double> x = {0.5, -0.5};
  const double before = b.forward1(x)[0];
  // Perturb a; b's output must not move.
  a.params()[0].value->data()[0] += 1.0;
  EXPECT_DOUBLE_EQ(b.forward1(x)[0], before);
  EXPECT_NE(a.forward1(x)[0], before);
}

TEST(Mlp, ClipGradNorm) {
  Rng rng(11);
  Mlp net(2, {}, 1, rng);
  for (auto p : net.params()) p.grad->fill(10.0);
  const double norm = net.clip_grad_norm(1.0);
  EXPECT_GT(norm, 1.0);
  double sq = 0;
  for (auto p : net.params())
    for (std::size_t k = 0; k < p.grad->size(); ++k)
      sq += p.grad->data()[k] * p.grad->data()[k];
  EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-9);
}

TEST(Mlp, NumParamsCountsEverything) {
  Rng rng(12);
  Mlp net(3, {5}, 2, rng);
  // (3·5 + 5) + (5·2 + 2) = 32
  EXPECT_EQ(net.num_params(), 32u);
}

TEST(Mlp, DimsReported) {
  Rng rng(13);
  Mlp net(7, {5}, 2, rng);
  EXPECT_EQ(net.in_dim(), 7u);
  EXPECT_EQ(net.out_dim(), 2u);
}

// -------------------------------------------------------- serialization ---

// Every parameter of `a` and `b`, bit for bit.
void expect_same_params(Mlp& a, Mlp& b) {
  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t t = 0; t < pa.size(); ++t) {
    ASSERT_EQ(pa[t].value->size(), pb[t].value->size());
    for (std::size_t i = 0; i < pa[t].value->size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pa[t].value->data()[i]),
                std::bit_cast<std::uint64_t>(pb[t].value->data()[i]))
          << "tensor " << t << " value " << i;
    }
  }
}

TEST(Serialize, RoundTripPreservesOutputs) {
  Rng rng(14);
  Mlp a(4, {8}, 3, rng);
  Mlp b(4, {8}, 3, rng);
  std::stringstream ss;
  save_params(a, ss);
  load_params(b, ss);
  expect_same_params(a, b);
  const std::vector<double> x = {0.1, -0.2, 0.3, 0.9};
  EXPECT_EQ(a.forward1(x), b.forward1(x));
}

TEST(Serialize, RejectsArchitectureMismatch) {
  Rng rng(15);
  Mlp a(4, {8}, 3, rng);
  Mlp b(4, {6}, 3, rng);
  std::stringstream ss;
  save_params(a, ss);
  EXPECT_THROW(load_params(b, ss), std::runtime_error);
}

// load_params on `text` throws std::runtime_error naming `fault`.
void expect_rejected(Mlp& net, const std::string& text, const std::string& fault) {
  std::stringstream ss(text);
  try {
    load_params(net, ss);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(fault), std::string::npos)
        << "want '" << fault << "', got '" << e.what() << "' for: " << text;
  }
}

TEST(Serialize, RejectsGarbage) {
  Rng rng(16);
  Mlp a(2, {}, 1, rng);  // one 2×1 weight, one 1×1 bias
  expect_rejected(a, "not a checkpoint", "not a herockpt v1 stream");
  expect_rejected(a, "", "not a herockpt v1 stream");
  expect_rejected(a, "herockpt 2 2\n", "not a herockpt v1 stream");
  expect_rejected(a, "herockpt 1 3\n", "parameter count mismatch");
  expect_rejected(a, "herockpt 1 2\n2 2\n0.5 0.5 0.5 0.5\n", "shape mismatch");
  const std::string head = "herockpt 1 2\n2 1\n";
  // A malformed token, wherever it stands.
  expect_rejected(a, head + "1.5x 0.25\n1 1\n0.5\n", "malformed value");
  expect_rejected(a, head + "0.25 0.5\n1 1\n1.5x\n", "malformed value");
  expect_rejected(a, head + "0.25 +0.5\n1 1\n0.5\n", "malformed value");
  expect_rejected(a, "herockpt 1 2\n2 1x\n0.25 0.5\n1 1\n0.5\n", "malformed value");
  // Non-finite and out-of-range values.
  expect_rejected(a, head + "nan 0.5\n1 1\n0.5\n", "non-finite value");
  expect_rejected(a, head + "0.25 -inf\n1 1\n0.5\n", "non-finite value");
  expect_rejected(a, head + "0.25 0.5\n1 1\ninf\n", "non-finite value");
  expect_rejected(a, head + "1e999 0.5\n1 1\n0.5\n", "value out of range");
  // A missing value, and data past the last one.
  expect_rejected(a, head + "0.25 0.5\n1 1\n", "truncated stream");
  expect_rejected(a, head + "0.25\n", "truncated stream");
  expect_rejected(a, head + "0.25 0.5\n1 1\n0.5 0.75\n", "trailing data");
  // The same values, well formed, load.
  std::stringstream ok(head + "0.25 0.5\n1 1\n-1e-05\n");
  load_params(a, ok);
  EXPECT_EQ(a.params()[0].value->data()[1], 0.5);
  EXPECT_EQ(a.params()[1].value->data()[0], -1e-05);
}

// Seeded byte mutants of a real tensor file: each one loads or is rejected
// with std::runtime_error, never anything else (the sanitizer build runs
// this too, so a read out of bounds fails it there).
TEST(Serialize, ByteMutantsLoadOrThrowNamedError) {
  Rng rng(18);
  Mlp a(6, {8, 8}, 5, rng);
  std::stringstream ss;
  save_params(a, ss);
  const std::string file = ss.str();
  const std::string alphabet = "0123456789.-+eE \n\tnaif";  // and any byte below
  Rng mut(19);
  int loaded = 0, rejected = 0;
  for (int m = 0; m < 2000; ++m) {
    std::string text = file;
    const int edits = 1 + static_cast<int>(mut.index(3));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = mut.index(text.size());
      const char c = alphabet[mut.index(alphabet.size())];
      switch (mut.index(5)) {
        case 0: text[at] = c; break;
        case 1: text.erase(at, 1); break;
        case 2: text.insert(at, 1, c); break;
        case 3: text.resize(at); break;
        default: text[at] = static_cast<char>(mut.index(256)); break;
      }
    }
    Mlp b(6, {8, 8}, 5, rng);
    std::stringstream in(text);
    try {
      load_params(b, in);
      ++loaded;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("load_params: "), std::string::npos) << e.what();
      ++rejected;
    }
  }
  EXPECT_EQ(loaded + rejected, 2000);
  EXPECT_GT(loaded, 0);  // some edits keep a valid file (a digit for a digit)
  EXPECT_GT(rejected, 0);
}

TEST(Serialize, FileRoundTrip) {
  Rng rng(17);
  Mlp a(3, {4}, 2, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "hero_ckpt_test.ckpt").string();
  save_params_file(a, path);
  Mlp b(3, {4}, 2, rng);
  load_params_file(b, path);
  expect_same_params(a, b);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace hero::nn
