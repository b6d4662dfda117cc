// Opponent modeling network (paper Sec. III-C, Fig. 3).
//
// For agent i, one categorical predictor per opponent j maps i's own
// high-level observation to a distribution over j's *current option* —
// modeling temporal abstractions instead of primitive actions. Trained
// online by entropy-regularized cross-entropy on the observed option
// history:  L(θ) = −E[log π̂(o^j | s_h^i)] − λ·H(π̂).
//
// The learned distributions feed the high-level actor and the critic's
// TD-target (the mechanism that counters non-stationarity in fully
// distributed training).
#pragma once

#include <memory>
#include <vector>

#include "hero/options.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "rl/replay_buffer.h"

namespace hero::core {

struct OpponentModelConfig {
  double lr = 0.002;
  double entropy_lambda = 0.01;  // λ in the paper's loss
  std::size_t buffer_capacity = 20000;
  std::size_t batch = 64;
  std::size_t min_samples = 64;
  std::vector<std::size_t> hidden = {32};
};

class OpponentModel {
 public:
  OpponentModel(std::size_t obs_dim, int num_opponents,
                const OpponentModelConfig& cfg, Rng& rng);

  int num_opponents() const { return static_cast<int>(nets_.size()); }

  // Predicted option distribution of opponent slot j (uniform until the
  // model has seen min_samples labels). The `_into` form writes kNumOptions
  // values to `out` without allocating.
  void predict_into(int j, const std::vector<double>& obs, double* out);
  std::vector<double> predict(int j, const std::vector<double>& obs);

  // Concatenated predictions over all opponents — the ô^{-i} feature block
  // consumed by the high-level actor and critic. The `_into` form writes
  // feature_dim() values to `out`.
  void predict_all_into(const std::vector<double>& obs, double* out);
  std::vector<double> predict_all(const std::vector<double>& obs);

  // Batched predict_all over a whole minibatch: row b of `obs_rows`
  // (B × obs_dim) yields row b of `out` (B × feature_dim). One forward per
  // opponent network instead of B single-row forwards — same values as
  // calling predict_all_into per row (the kernels treat batch rows
  // independently), but ~B× fewer network dispatches. This is the
  // high-level update's hot path (docs/PARALLELISM.md §hot-path).
  void predict_all_rows(const nn::Matrix& obs_rows, nn::Matrix& out);
  std::size_t feature_dim() const {
    return nets_.size() * static_cast<std::size_t>(kNumOptions);
  }

  // One observed (own obs, opponent j's current option) pair. Public so
  // BatchedRollout can stage a round's labels for the trainer's merge.
  struct Sample {
    std::vector<double> obs;
    int option;
  };

  // Records one observed (own obs, opponent j's current option) pair.
  void observe(int j, std::vector<double> obs, Option option);

  // One gradient step on opponent j's predictor; returns the loss (NaN-free;
  // 0 when below min_samples). update_all() steps every predictor and
  // appends to the per-opponent loss history (the Fig. 10 curves).
  double update(int j, Rng& rng);
  std::vector<double> update_all(Rng& rng);

  const std::vector<std::vector<double>>& loss_history() const { return losses_; }

  // Direct access to predictor j's network (checkpointing).
  nn::Mlp& net(int j) { return nets_[static_cast<std::size_t>(j)]; }

  // Marks the predictors as trained so predict() trusts the networks even
  // with an empty sample buffer (used after loading a checkpoint).
  void mark_trained() { trained_ = true; }
  bool trained() const { return trained_; }

  // Number of labeled samples collected for opponent j.
  std::size_t samples(int j) const { return buffers_[static_cast<std::size_t>(j)].size(); }
  // True once predictor j has enough samples for update() to take a step.
  bool ready(int j) const {
    return buffers_[static_cast<std::size_t>(j)].size() >= cfg_.min_samples;
  }

 private:
  OpponentModelConfig cfg_;
  bool trained_ = false;
  std::vector<nn::Mlp> nets_;
  std::vector<std::unique_ptr<nn::Adam>> opts_;
  std::vector<rl::ReplayBuffer<Sample>> buffers_;
  std::vector<std::vector<double>> losses_;  // per opponent, per update

  // Prediction/update scratch (resized in place).
  nn::Matrix obs_row_, obs_m_, ce_grad_, probs_, logp_;
  std::vector<std::size_t> labels_;
};

}  // namespace hero::core
