// PolicyEngine: the model side of the policy server (docs/SERVING.md).
//
// Owns the live HERO model (a HeroTrainer restored from a frozen
// checkpoint), the fused HeroActEngine, the ObsBatch staging area, and the
// per-session semi-MDP state. The transport layer (server.h, or an
// in-process harness like hero_loadgen --in-process) hands it decoded
// ActRequests in whatever grouping the micro-batcher chose; one act_batch()
// call runs the cross-request fused pass and fills the responses.
//
// Hot reload: reload() restores the new checkpoint into a STANDBY trainer
// first — manifest validation and tensor loading happen entirely off the
// serving path — then swaps it in. Sessions hold no pointers into the model
// (HeroSession is pure option bookkeeping; the engine takes the model per
// call), so in-flight sessions continue seamlessly under the new weights,
// and a failed reload leaves the active model untouched.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hero/act_engine.h"
#include "hero/checkpoint.h"
#include "hero/hero_trainer.h"
#include "serve/protocol.h"

namespace hero::serve {

class PolicyEngine {
 public:
  // Builds the serving model for `scenario` + `cfg` and restores `ckpt_dir`
  // into it (throws std::runtime_error on a missing or incompatible
  // checkpoint — see hero/checkpoint.h).
  PolicyEngine(const sim::Scenario& scenario, const core::HeroConfig& cfg,
               const std::string& ckpt_dir);

  // --- model geometry (what Hello frames are validated against) ---
  int learners() const;
  std::size_t hl_dim() const;
  std::size_t ll_dim() const;
  int num_lanes() const;
  double dt() const;
  const core::CheckpointManifest& manifest() const { return manifest_; }

  // Empty when `hello` matches the model; otherwise a client-facing
  // description of every dimension mismatch.
  std::string hello_mismatch(const Hello& hello) const;

  // --- sessions ---
  std::uint32_t open_session(std::uint64_t seed, bool explore);
  void close_session(std::uint32_t id);
  bool has_session(std::uint32_t id) const {
    return sessions_.find(id) != sessions_.end();
  }
  std::size_t session_count() const { return sessions_.size(); }

  // --- inference ---
  // One scheduled batch: requests[i] belongs to session_ids[i] and its
  // response lands in (*responses)[i]. Mixed greedy/explore batches are
  // partitioned internally (one fused pass per mode); requests of the same
  // mode batch together regardless of session. Each response carries the
  // commands plus the option every agent holds after the tick.
  void act_batch(const std::vector<std::uint32_t>& session_ids,
                 const std::vector<const ActRequest*>& requests,
                 std::vector<ActResponse>* responses);

  // --- hot reload ---
  // Swaps in `ckpt_dir`. Throws std::runtime_error (active model untouched)
  // when the checkpoint is missing or incompatible.
  void reload(const std::string& ckpt_dir);
  long reloads() const { return reloads_; }

 private:
  struct Session {
    core::HeroSession hero;
    Rng rng;
    bool explore = false;
  };

  // One fused engine pass over the subset of `indices` (positions into the
  // act_batch arguments) whose sessions run in `explore` mode.
  void run_mode(const std::vector<std::uint32_t>& session_ids,
                const std::vector<const ActRequest*>& requests,
                std::vector<ActResponse>* responses,
                const std::vector<std::size_t>& indices, bool explore);

  sim::Scenario scenario_;
  core::HeroConfig cfg_;
  std::unique_ptr<core::HeroTrainer> model_;
  core::CheckpointManifest manifest_;
  long reloads_ = 0;

  core::HeroActEngine engine_;
  rl::ObsBatch batch_;
  std::map<std::uint32_t, Session> sessions_;
  std::uint32_t next_session_ = 1;

  // act_batch scratch (reused across calls).
  std::vector<std::size_t> greedy_idx_, explore_idx_;
  std::vector<core::HeroSession*> session_ptrs_;
  std::vector<Rng*> rng_ptrs_;
  std::vector<sim::TwistCmd> cmds_;
};

}  // namespace hero::serve
