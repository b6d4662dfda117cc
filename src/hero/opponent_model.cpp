#include "hero/opponent_model.h"

#include <algorithm>
#include <cmath>

#include "nn/losses.h"
#include "obs/phase.h"

namespace hero::core {

OpponentModel::OpponentModel(std::size_t obs_dim, int num_opponents,
                             const OpponentModelConfig& cfg, Rng& rng)
    : cfg_(cfg) {
  HERO_CHECK(num_opponents >= 0);
  for (int j = 0; j < num_opponents; ++j) {
    nets_.emplace_back(obs_dim, cfg_.hidden, kNumOptions, rng);
    opts_.push_back(std::make_unique<nn::Adam>(nets_.back().params(), cfg_.lr));
    buffers_.emplace_back(cfg_.buffer_capacity);
    losses_.emplace_back();
  }
}

void OpponentModel::predict_into(int j, const std::vector<double>& obs, double* out) {
  auto& buffer = buffers_[static_cast<std::size_t>(j)];
  if (!trained_ && buffer.size() < cfg_.min_samples) {
    for (int a = 0; a < kNumOptions; ++a) out[a] = 1.0 / kNumOptions;
    return;
  }
  obs_row_.resize(1, obs.size());
  std::copy(obs.begin(), obs.end(), obs_row_.data());
  const nn::Matrix& logits = nets_[static_cast<std::size_t>(j)].forward(obs_row_);
  // Softmax of the single logits row, straight into `out`.
  const double* lrow = logits.row_ptr(0);
  double mx = lrow[0];
  for (int a = 1; a < kNumOptions; ++a) mx = std::max(mx, lrow[a]);
  double z = 0.0;
  for (int a = 0; a < kNumOptions; ++a) {
    out[a] = std::exp(lrow[a] - mx);
    z += out[a];
  }
  for (int a = 0; a < kNumOptions; ++a) out[a] /= z;
}

std::vector<double> OpponentModel::predict(int j, const std::vector<double>& obs) {
  std::vector<double> out(kNumOptions);
  predict_into(j, obs, out.data());
  return out;
}

void OpponentModel::predict_all_into(const std::vector<double>& obs, double* out) {
  for (int j = 0; j < num_opponents(); ++j) {
    predict_into(j, obs, out + static_cast<std::size_t>(j) * kNumOptions);
  }
}

std::vector<double> OpponentModel::predict_all(const std::vector<double>& obs) {
  std::vector<double> out(feature_dim());
  predict_all_into(obs, out.data());
  return out;
}

void OpponentModel::predict_all_rows(const nn::Matrix& obs_rows, nn::Matrix& out) {
  OBS_PHASE("opponent_predict");
  const std::size_t B = obs_rows.rows();
  out.resize(B, std::max<std::size_t>(feature_dim(), 1));
  for (int j = 0; j < num_opponents(); ++j) {
    const std::size_t off = static_cast<std::size_t>(j) * kNumOptions;
    auto& buffer = buffers_[static_cast<std::size_t>(j)];
    if (!trained_ && buffer.size() < cfg_.min_samples) {
      for (std::size_t b = 0; b < B; ++b) {
        double* row = out.row_ptr(b) + off;
        for (int a = 0; a < kNumOptions; ++a) row[a] = 1.0 / kNumOptions;
      }
      continue;
    }
    const nn::Matrix& logits = nets_[static_cast<std::size_t>(j)].forward(obs_rows);
    for (std::size_t b = 0; b < B; ++b) {
      // Same max-subtracted softmax as predict_into, row by row.
      const double* lrow = logits.row_ptr(b);
      double* orow = out.row_ptr(b) + off;
      double mx = lrow[0];
      for (int a = 1; a < kNumOptions; ++a) mx = std::max(mx, lrow[a]);
      double z = 0.0;
      for (int a = 0; a < kNumOptions; ++a) {
        orow[a] = std::exp(lrow[a] - mx);
        z += orow[a];
      }
      for (int a = 0; a < kNumOptions; ++a) orow[a] /= z;
    }
  }
}

void OpponentModel::observe(int j, std::vector<double> obs, Option option) {
  buffers_[static_cast<std::size_t>(j)].add(
      {std::move(obs), static_cast<int>(option)});
}

double OpponentModel::update(int j, Rng& rng) {
  if (!ready(j)) return 0.0;
  drawn_.clear();
  draw(j, rng, drawn_);
  return apply(j, drawn_.data());
}

void OpponentModel::draw(int j, Rng& rng, std::vector<std::size_t>& out) const {
  if (!ready(j)) return;
  buffers_[static_cast<std::size_t>(j)].draw_indices(cfg_.batch, rng, out);
}

double OpponentModel::apply(int j, const std::size_t* idx) {
  const auto& buffer = buffers_[static_cast<std::size_t>(j)];
  const std::size_t B = cfg_.batch;

  auto& net = nets_[static_cast<std::size_t>(j)];
  obs_m_.resize(B, net.in_dim());
  labels_.resize(B);
  for (std::size_t b = 0; b < B; ++b) {
    const Sample& s = buffer.at(idx[b]);
    std::copy(s.obs.begin(), s.obs.end(), obs_m_.row_ptr(b));
    labels_[b] = static_cast<std::size_t>(s.option);
  }

  const nn::Matrix& logits = net.forward(obs_m_);
  const double ce_loss = nn::softmax_cross_entropy_into(logits, labels_, nullptr, ce_grad_);

  // Entropy regularization: loss −= λ·H(π̂);
  // d(−H)/dlogit_c = p_c (log p_c + H).
  nn::softmax_into(logits, probs_);
  nn::log_softmax_into(logits, logp_);
  const double inv_b = 1.0 / static_cast<double>(B);
  double mean_entropy = 0.0;
  for (std::size_t b = 0; b < B; ++b) {
    double h = 0.0;
    for (int a = 0; a < kNumOptions; ++a) {
      h -= probs_(b, static_cast<std::size_t>(a)) * logp_(b, static_cast<std::size_t>(a));
    }
    mean_entropy += h * inv_b;
    for (int a = 0; a < kNumOptions; ++a) {
      const std::size_t c = static_cast<std::size_t>(a);
      ce_grad_(b, c) += cfg_.entropy_lambda * probs_(b, c) * (logp_(b, c) + h) * inv_b;
    }
  }
  const double loss = ce_loss - cfg_.entropy_lambda * mean_entropy;

  net.zero_grad();
  net.backward_params(ce_grad_);
  net.clip_grad_norm(10.0);
  opts_[static_cast<std::size_t>(j)]->step();
  losses_[static_cast<std::size_t>(j)].push_back(loss);
  trained_ = true;
  return loss;
}

}  // namespace hero::core
