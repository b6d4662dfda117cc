#include "serve/policy_engine.h"

#include <algorithm>
#include <sstream>

#include "obs/phase.h"

namespace hero::serve {

namespace {
// The serving model's weights come entirely from the checkpoint; this seed
// only initializes the to-be-overwritten construction weights, and keeping
// it fixed keeps server startup deterministic.
constexpr std::uint64_t kModelInitSeed = 0x5e12e;
}  // namespace

PolicyEngine::PolicyEngine(const sim::Scenario& scenario,
                           const core::HeroConfig& cfg,
                           const std::string& ckpt_dir)
    : scenario_(scenario), cfg_(cfg) {
  // The manifest makes the checkpoint self-describing: adopt its network
  // widths before constructing the model, so one server binary serves
  // checkpoints of any --hidden size.
  manifest_ = core::read_manifest(ckpt_dir);
  core::apply_manifest_geometry(manifest_, &cfg_);
  Rng rng(kModelInitSeed);
  model_ = std::make_unique<core::HeroTrainer>(scenario_, cfg_, rng);
  model_->load(ckpt_dir, manifest_);
  batch_.configure(learners(), hl_dim(), ll_dim(), num_lanes());
}

int PolicyEngine::learners() const { return model_->num_agents(); }
std::size_t PolicyEngine::hl_dim() const { return model_->world().high_level_obs_dim(); }
std::size_t PolicyEngine::ll_dim() const { return model_->world().low_level_obs_dim(); }
int PolicyEngine::num_lanes() const { return model_->world().track().num_lanes(); }
double PolicyEngine::dt() const { return model_->world().config().dt; }

std::string PolicyEngine::hello_mismatch(const Hello& hello) const {
  std::ostringstream err;
  int problems = 0;
  const auto check = [&](const char* what, std::uint32_t got, std::size_t want) {
    if (got != static_cast<std::uint32_t>(want)) {
      err << (problems++ ? "; " : "") << what << ": client has " << got
          << ", server has " << want;
    }
  };
  check("learners", hello.learners, static_cast<std::size_t>(learners()));
  check("hl_dim", hello.hl_dim, hl_dim());
  check("ll_dim", hello.ll_dim, ll_dim());
  check("num_lanes", hello.num_lanes, static_cast<std::size_t>(num_lanes()));
  return err.str();
}

std::uint32_t PolicyEngine::open_session(std::uint64_t seed, bool explore) {
  const std::uint32_t id = next_session_++;
  Session& s = sessions_[id];
  s.rng = Rng(seed);
  s.explore = explore;
  return id;
}

void PolicyEngine::close_session(std::uint32_t id) { sessions_.erase(id); }

void PolicyEngine::act_batch(const std::vector<std::uint32_t>& session_ids,
                             const std::vector<const ActRequest*>& requests,
                             std::vector<ActResponse>* responses) {
  OBS_PHASE("serve_act");
  HERO_CHECK(session_ids.size() == requests.size());
  responses->resize(requests.size());
  greedy_idx_.clear();
  explore_idx_.clear();
  for (std::size_t i = 0; i < session_ids.size(); ++i) {
    auto it = sessions_.find(session_ids[i]);
    HERO_CHECK_MSG(it != sessions_.end(),
                   "act_batch: unknown session " << session_ids[i]);
    (it->second.explore ? explore_idx_ : greedy_idx_).push_back(i);
  }
  if (!greedy_idx_.empty()) {
    run_mode(session_ids, requests, responses, greedy_idx_, /*explore=*/false);
  }
  if (!explore_idx_.empty()) {
    run_mode(session_ids, requests, responses, explore_idx_, /*explore=*/true);
  }
}

void PolicyEngine::run_mode(const std::vector<std::uint32_t>& session_ids,
                            const std::vector<const ActRequest*>& requests,
                            std::vector<ActResponse>* responses,
                            const std::vector<std::size_t>& indices, bool explore) {
  const int n = learners();
  const std::size_t hl = hl_dim();
  const std::size_t ll = ll_dim();
  const int lanes = num_lanes();
  const sim::Track& track = model_->world().track();
  const double step_dt = dt();

  batch_.set_count(indices.size());
  session_ptrs_.resize(indices.size());
  rng_ptrs_.resize(indices.size());
  for (std::size_t s = 0; s < indices.size(); ++s) {
    const ActRequest& req = *requests[indices[s]];
    Session& sess = sessions_.at(session_ids[indices[s]]);
    session_ptrs_[s] = &sess.hero;
    rng_ptrs_[s] = &sess.rng;

    auto& meta = batch_.slot(s);
    meta.track = &track;
    meta.dt = step_dt;
    meta.reset = req.reset != 0;
    for (int k = 0; k < n; ++k) {
      auto& sc = batch_.scalars(s, k);
      const std::size_t uk = static_cast<std::size_t>(k);
      sc.y = req.y[uk];
      sc.heading = req.heading[uk];
      sc.speed = req.speed[uk];
      sc.lane = req.lane[uk];
      HERO_CHECK_MSG(sc.lane >= 0 && sc.lane < lanes,
                     "act request lane " << sc.lane << " out of range");
      std::copy(req.hl.begin() + static_cast<std::ptrdiff_t>(uk * hl),
                req.hl.begin() + static_cast<std::ptrdiff_t>((uk + 1) * hl),
                batch_.hl_row(s, k));
      for (int lane = 0; lane < lanes; ++lane) {
        const std::size_t row =
            (uk * static_cast<std::size_t>(lanes) + static_cast<std::size_t>(lane)) *
            ll;
        std::copy(req.ll.begin() + static_cast<std::ptrdiff_t>(row),
                  req.ll.begin() + static_cast<std::ptrdiff_t>(row + ll),
                  batch_.ll_row(s, k, lane));
      }
    }
  }

  cmds_.resize(indices.size() * static_cast<std::size_t>(n));
  engine_.act_rows(model_->skills(), model_->agents(), cfg_.high,
                   cfg_.skill.termination, batch_, session_ptrs_.data(),
                   rng_ptrs_.data(), explore, cmds_.data());

  for (std::size_t s = 0; s < indices.size(); ++s) {
    const ActRequest& req = *requests[indices[s]];
    ActResponse& resp = (*responses)[indices[s]];
    resp.request_id = req.request_id;
    resp.linear.resize(static_cast<std::size_t>(n));
    resp.angular.resize(static_cast<std::size_t>(n));
    resp.option.resize(static_cast<std::size_t>(n));
    const core::HeroSession& hero = *session_ptrs_[s];
    for (int k = 0; k < n; ++k) {
      const sim::TwistCmd& cmd = cmds_[s * static_cast<std::size_t>(n) +
                                       static_cast<std::size_t>(k)];
      resp.linear[static_cast<std::size_t>(k)] = cmd.linear;
      resp.angular[static_cast<std::size_t>(k)] = cmd.angular;
      resp.option[static_cast<std::size_t>(k)] =
          hero.options[static_cast<std::size_t>(k)];
    }
  }
}

void PolicyEngine::reload(const std::string& ckpt_dir) {
  OBS_PHASE("serve_reload");
  // Build and restore the standby entirely before touching the active model:
  // any throw below leaves serving exactly as it was. The new checkpoint's
  // manifest supplies its own network widths, so hot reload works even
  // across differently-sized checkpoints (the obs dims must still match —
  // validate_manifest enforces that).
  core::HeroConfig standby_cfg = cfg_;
  core::CheckpointManifest manifest = core::read_manifest(ckpt_dir);
  core::apply_manifest_geometry(manifest, &standby_cfg);
  Rng rng(kModelInitSeed);
  auto standby = std::make_unique<core::HeroTrainer>(scenario_, standby_cfg, rng);
  standby->load(ckpt_dir, manifest);
  model_ = std::move(standby);
  cfg_ = standby_cfg;
  manifest_ = std::move(manifest);
  ++reloads_;
}

}  // namespace hero::serve
