// HERO end-to-end: two-stage training (paper Fig. 2) and deployment.
//
//   Stage 1 — train_skills(): each low-level skill learns in a single-vehicle
//   world against its intrinsic reward (Algorithm 2).
//   Stage 2 — train(): multiple vehicles learn the high-level cooperative
//   option-selection policy with opponent modeling, skills frozen
//   (Algorithm 1).
//
// HeroTrainer is also an rl::Controller: stage 2 acts through it in the one
// episode loop (rl/episode_runner.h), and the shared evaluation harness (and
// the Table II domain-shifted world) runs it like any baseline.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "algos/common.h"
#include "common/stats.h"
#include "hero/act_engine.h"
#include "hero/batched_rollout.h"
#include "hero/hero_agent.h"
#include "runtime/thread_pool.h"

namespace hero::core {

struct CheckpointManifest;

struct HeroConfig {
  SkillConfig skill;
  HighLevelConfig high;
  OpponentModelConfig opponent;
  int update_every = 2;  // batch steps between gradient update rounds
  // Stage-1 skill-training pool: > 1 trains the learned skills as parallel
  // pool tasks (paper Sec. V-C), each on its own RNG stream; 1 trains them
  // one after another on the caller's rng. The two draw different streams,
  // so stage-1 results differ between 1 and > 1 (docs/PARALLELISM.md).
  int num_workers = 1;
  // Stage-2 collection width (docs/BATCHING.md): that many episodes step in
  // lockstep through one vectorized BatchLaneWorld on a single thread, with
  // every per-step network evaluation batched across lanes and gradient
  // updates clocked per *batch* step. 0 and 1 both collect one episode at a
  // time. The updates run one pool task per learner, at a width the code
  // takes from the CPUs it may use, which never changes a result. Stage 2
  // is deterministic for a fixed (seed, batch_envs) pair.
  int batch_envs = 0;
};

class HeroTrainer : public rl::Controller {
 public:
  HeroTrainer(const sim::Scenario& scenario, const HeroConfig& cfg, Rng& rng);

  // --- stage 1 ---
  using SkillHook = std::function<void(Option, int, double)>;
  // Trains every learned skill; returns the per-episode intrinsic reward
  // curves (Fig. 8).
  std::map<Option, std::vector<double>> train_skills(int episodes_per_skill,
                                                     Rng& rng,
                                                     const SkillHook& hook = {});

  // --- stage 2 ---
  // Runs the episodes through rl::run_episodes in rounds of
  // max(batch_envs, 1) lanes keyed by stream_rng(root, episode), one root
  // drawn from `rng` per call, with this trainer as the exploring
  // controller and BatchedRollout as the step hook. At each round's end it
  // merges the round into the learners' buffers in episode order, then
  // runs one update round per `update_every` batch steps: their replay
  // draws from `rng` on this thread, each learner's gradient steps as one
  // task on the learner pool (docs/PARALLELISM.md §HERO).
  void train(int episodes, Rng& rng, const algos::EpisodeHook& hook = {});

  // --- rl::Controller (training, deployment, evaluation) ---
  // One fused HeroActEngine pass over all active slots (three batched
  // network stages total instead of 3·B·n single-row forwards); act() is
  // this call on a batch of one. Slot s's option state lives in an internal
  // HeroSession keyed by slot index, reset via the batch's reset flags — the
  // Controller contract's "slot index is session identity". Sessions count
  // their own ε-schedule position, so evaluation never moves the learners'.
  // train() acts through this call too: its rounds take slots 0..E−1 and
  // restart them, so an act() episode in progress does not survive a
  // train() call. Greedy commands equal the scalar rule in
  // tests/support/hero_oracle.h bit for bit
  // (ServingEquivalence.ServedMatchesInProcessGreedy).
  void act_rows_into(const rl::ObsBatch& batch, Rng* const* rngs, bool explore,
                     sim::TwistCmd* cmds_out) override;

  // --- checkpointing ---
  // Persists the full model (skill bank, per-agent high-level actor/critic,
  // opponent predictors) into `dir`, plus the versioned `checkpoint.json`
  // manifest (hero/checkpoint.h); load() restores into an identically
  // configured trainer. `on_disk` is dir's manifest (read_manifest(dir)),
  // passed in by callers that read it first to size the model; load()
  // validates it against this trainer and throws std::runtime_error when it
  // declares an incompatible format or architecture. Note: opponent
  // predictors below their min-samples threshold still report the uniform
  // prior after load (by design — the threshold guards deployment on
  // untrained predictors).
  void save(const std::string& dir);
  void load(const std::string& dir);
  void load(const std::string& dir, const CheckpointManifest& on_disk);

  SkillBank& skills() { return skills_; }
  HeroAgent& agent(int k) { return *agents_[static_cast<std::size_t>(k)]; }
  // The full agent roster — what HeroActEngine consumers (the policy server)
  // pass per call so a model swap never invalidates engine state.
  std::vector<std::unique_ptr<HeroAgent>>& agents() { return agents_; }
  const HeroConfig& config() const { return cfg_; }
  int num_agents() const { return static_cast<int>(agents_.size()); }
  sim::LaneWorld& world() { return world_; }
  const sim::Scenario& scenario() const { return scenario_; }

 private:
  // A round's end, under the `learn` phase: merges episodes [first,
  // first + count) (lanes 0..count−1, `stats` lane-indexed) into the
  // learners, runs the update rounds its batch steps earned (their draws
  // here, each learner's applies as one for_each_learner task), then
  // reports each episode to telemetry and `hook`.
  void learn_round(int first, const std::vector<rl::EpisodeStats>& stats,
                   std::size_t count, Rng& rng, const algos::EpisodeHook& hook,
                   bool observing, double round_start_us);

  // Runs fn(k) for every learner k: as tasks on the learner pool, which the
  // first call builds at min(learners, CPUs in the calling thread's
  // affinity mask) threads, or inline at width 1.
  void for_each_learner(const std::function<void(std::size_t)>& fn);

  // Shared telemetry/metrics emission for one finished episode.
  void emit_episode_obs(int episode, const rl::EpisodeStats& stats, long switches,
                        long opp_preds, long opp_hits, double steps_per_sec,
                        const RunningStat& critic_loss,
                        const RunningStat& actor_entropy,
                        const RunningStat& critic_gn, const RunningStat& actor_gn,
                        const RunningStat& opp_loss);

  sim::Scenario scenario_;
  HeroConfig cfg_;
  sim::LaneWorld world_;
  SkillBank skills_;
  std::vector<std::unique_ptr<HeroAgent>> agents_;
  long total_steps_ = 0;

  std::unique_ptr<runtime::ThreadPool> pool_;  // stage-1 skill pool (lazy)
  // Stage 2: the lanes train() steps (lazy, built by the first call) and
  // the step hook that stages their transitions and labels.
  std::unique_ptr<sim::BatchLaneWorld> lanes_;
  BatchedRollout rollout_{cfg_.high};
  long pending_update_steps_ = 0;  // carries the batch-steps/update_every remainder

  // The one action engine (training, evaluation, serving; its scratch
  // starts empty) and its per-slot sessions (grown by act_rows_into).
  HeroActEngine act_engine_;
  std::vector<HeroSession> act_sessions_;
  std::vector<HeroSession*> act_session_ptrs_;

  // Stage-2 updates: each learner's drawn replay indices for one block of
  // rounds, the block's stats (round-major), and the learner pool (lazy,
  // null at width 1; learner_threads_ is 0 until the first update round).
  std::vector<std::vector<std::size_t>> draws_;
  std::vector<AgentUpdateStats> update_stats_;
  std::size_t learner_threads_ = 0;
  std::unique_ptr<runtime::ThreadPool> learner_pool_;
};

}  // namespace hero::core
