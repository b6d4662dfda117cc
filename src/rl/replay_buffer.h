// Uniform experience-replay ring buffer (paper Table I: capacity 100k,
// batch 1024). Header-only template shared by every off-policy learner:
// each algorithm defines its own Transition record type.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace hero::rl {

template <typename Transition>
class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
    HERO_CHECK(capacity_ > 0);
    data_.reserve(capacity_);
  }

  void add(Transition t) {
    HERO_DCHECK_MSG(write_ < capacity_,
                    "ReplayBuffer write cursor " << write_ << " out of bounds ("
                                                 << capacity_ << ")");
    if (data_.size() < capacity_) {
      data_.push_back(std::move(t));
    } else {
      data_[write_] = std::move(t);
    }
    write_ = (write_ + 1) % capacity_;
    HERO_DCHECK(data_.size() <= capacity_);
  }

  std::size_t size() const { return data_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool ready(std::size_t minimum) const { return data_.size() >= minimum; }
  void clear() {
    data_.clear();
    write_ = 0;
  }

  // Uniform sample with replacement; pointers remain valid until the next
  // add() — consumers copy what they need into batch matrices immediately.
  std::vector<const Transition*> sample(std::size_t batch, Rng& rng) const {
    HERO_CHECK(!data_.empty());
    HERO_DCHECK_MSG(batch > 0, "ReplayBuffer::sample with empty batch");
    std::vector<const Transition*> out;
    out.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) out.push_back(&data_[rng.index(data_.size())]);
    return out;
  }

  // sample() split in two, for callers that draw on one thread and compute
  // on another: draw_indices() appends exactly sample()'s rng draws to
  // `out`, and gather() turns them into sample()'s pointers. The indices
  // stay valid until the next add().
  void draw_indices(std::size_t batch, Rng& rng, std::vector<std::size_t>& out) const {
    HERO_CHECK(!data_.empty());
    HERO_DCHECK_MSG(batch > 0, "ReplayBuffer::draw_indices with empty batch");
    for (std::size_t i = 0; i < batch; ++i) out.push_back(rng.index(data_.size()));
  }
  void gather(const std::size_t* idx, std::size_t n,
              std::vector<const Transition*>& out) const {
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      HERO_DCHECK(idx[i] < data_.size());
      out[i] = &data_[idx[i]];
    }
  }

  const Transition& at(std::size_t i) const { return data_[i]; }

 private:
  std::size_t capacity_;
  std::size_t write_ = 0;
  std::vector<Transition> data_;
};

}  // namespace hero::rl
