#include "rl/episode_runner.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "obs/obs.h"
#include "runtime/rng_stream.h"

namespace hero::rl {

namespace {

// The state of one run_episodes call: the two observation batches a tick
// alternates between, the commands, the step output, per-lane stats and,
// for root-keyed rounds, the lanes' streams.
class Runner {
 public:
  Runner(const EpisodeLoop& loop, sim::BatchLaneWorld& world)
      : loop_(loop),
        world_(world),
        n_(static_cast<std::size_t>(world.num_learners())),
        cmds_(static_cast<std::size_t>(world.num_envs()) * n_),
        active_(static_cast<std::size_t>(world.num_envs()), 0),
        stats_(static_cast<std::size_t>(world.num_envs())) {
    HERO_CHECK(loop.controller != nullptr);
    for (ObsBatch* b : {&a_, &b_}) {
      b->configure(world.num_learners(), world.high_level_obs_dim(),
                   world.low_level_obs_dim(), world.track().num_lanes());
    }
  }

  // Episodes [first, first + count) on lanes [0, count); lane i draws from
  // *rngs[i].
  void round(int first, std::size_t count, Rng* const* rngs) {
    {
      OBS_PHASE("rollout");
      play(count, rngs);
    }
    report(first, count);
  }

  // The same, lane i drawing from stream_rng(root, first + i).
  void round(int first, std::size_t count, std::uint64_t root) {
    {
      OBS_PHASE("rollout");
      // Seeded in the scope: each stream is a 2.5 KB engine, and the
      // storage is kept for the call's later rounds.
      streams_.clear();
      streams_.reserve(active_.size());
      stream_ptrs_.clear();
      for (std::size_t i = 0; i < count; ++i) {
        streams_.push_back(
            runtime::stream_rng(root, static_cast<std::uint64_t>(first) + i));
        stream_ptrs_.push_back(&streams_.back());
      }
      play(count, stream_ptrs_.data());
    }
    report(first, count);
  }

 private:
  void play(std::size_t count, Rng* const* rngs);
  void finish(std::size_t lane);
  void report(int first, std::size_t count) const;

  const EpisodeLoop& loop_;
  sim::BatchLaneWorld& world_;
  const std::size_t n_;
  ObsBatch a_, b_;
  std::vector<sim::TwistCmd> cmds_;
  std::vector<std::uint8_t> active_;
  std::vector<EpisodeStats> stats_;
  sim::BatchStepResult out_;
  std::vector<Rng> streams_;
  std::vector<Rng*> stream_ptrs_;
};

void Runner::play(std::size_t count, Rng* const* rngs) {
  ObsBatch* now = &a_;
  ObsBatch* next = &b_;
  now->set_count(count);
  next->set_count(count);
  std::fill(active_.begin(), active_.end(), 0);
  for (std::size_t i = 0; i < count; ++i) {
    world_.reset_env(static_cast<int>(i), *rngs[i]);
    stats_[i] = EpisodeStats{};
    active_[i] = 1;
  }
  {
    OBS_PHASE("obs_build");
    for (std::size_t i = 0; i < count; ++i) {
      now->set_slot_from_world(i, world_, static_cast<int>(i), /*reset=*/true, rngs[i]);
    }
  }

  std::size_t live = count;
  while (live > 0) {
    loop_.controller->act_rows_into(*now, rngs, loop_.explore, cmds_.data());
    world_.step_all(cmds_.data(), rngs, active_.data(), out_);
    {
      OBS_PHASE("obs_build");
      // A finished lane's post-step rows only feed the hook; without one
      // they are not extracted, so no sensor noise is drawn after an
      // episode's last step.
      for (std::size_t i = 0; i < count; ++i) {
        if (active_[i] == 0 || (out_.done[i] != 0 && !loop_.on_step)) continue;
        next->set_slot_from_world(i, world_, static_cast<int>(i), /*reset=*/false,
                                  rngs[i]);
      }
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (active_[i] == 0) continue;
      // Team reward: the learners' rewards summed in order, then averaged.
      double sum = 0.0;
      for (std::size_t k = 0; k < n_; ++k) sum += out_.reward[i * n_ + k];
      stats_[i].team_reward += sum / static_cast<double>(n_);
      if (out_.collision[i] != 0) stats_[i].collision = true;
    }
    if (loop_.on_step) loop_.on_step(StepView{*now, *next, cmds_.data(), out_});
    for (std::size_t i = 0; i < count; ++i) {
      if (active_[i] == 0 || out_.done[i] == 0) continue;
      finish(i);
      active_[i] = 0;
      --live;
    }
    std::swap(now, next);
    for (std::size_t i = 0; i < count; ++i) {
      if (active_[i] == 0) now->slot(i).active = false;
    }
  }
}

void Runner::finish(std::size_t lane) {
  const int e = static_cast<int>(lane);
  EpisodeStats& s = stats_[lane];
  s.steps = world_.steps(e);
  s.success =
      !s.collision && world_.lane(e, loop_.merger_index) == loop_.merger_target_lane;
  double speed = 0.0;
  for (int vi : world_.learners()) speed += world_.mean_speed(e, vi);
  s.mean_speed = speed / static_cast<double>(n_);
}

void Runner::report(int first, std::size_t count) const {
  if (!loop_.on_episode) return;
  for (std::size_t i = 0; i < count; ++i) {
    loop_.on_episode(first + static_cast<int>(i), i, stats_[i]);
  }
}

}  // namespace

void run_episodes(const EpisodeLoop& loop, sim::BatchLaneWorld& world, Rng& rng,
                  int episodes) {
  Runner runner(loop, world);
  Rng* const rngs[] = {&rng};
  for (int ep = 0; ep < episodes; ++ep) runner.round(ep, 1, rngs);
}

void run_episodes(const EpisodeLoop& loop, sim::BatchLaneWorld& world,
                  std::uint64_t root, int episodes) {
  Runner runner(loop, world);
  const int lanes = world.num_envs();
  for (int first = 0; first < episodes; first += lanes) {
    runner.round(first, static_cast<std::size_t>(std::min(lanes, episodes - first)),
                 root);
  }
}

}  // namespace hero::rl
