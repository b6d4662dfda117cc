// hero_train — train the full HERO model on the cooperative lane-change
// scenario and write a checkpoint directory deployable with hero_eval.
//
//   hero_train --out ckpt/ [--skill-episodes 400] [--episodes 2000]
//              [--learners 3] [--seed 1] [--no-opponent-model]
//              [--scenario cfg.json] [--scenario-vehicles N]
//              [--synchronous-termination] [--curves prefix]
//              [--hl-warmup N] [--hl-batch N]
//              [--num-workers N] [--batch-envs N]
//              [--metrics-out m.json] [--trace-out t.json]
//              [--telemetry-out run.jsonl]
//
// `--hl-warmup` / `--hl-batch` override the high-level replay warmup and
// batch size (smoke runs shrink them so gradient updates happen within a
// couple of episodes).
//
// `--num-workers N` trains the stage-1 skills as N-wide pool tasks; it does
// not change stage 2 (docs/PARALLELISM.md).
//
// `--batch-envs N` sets the stage-2 collection width: N episodes step in
// lockstep through a vectorized world with batched network evaluation on
// one thread (docs/BATCHING.md); the default 0 runs one episode at a time,
// like 1. Stage-2 results are keyed to (seed, batch_envs).
//
// `--scenario cfg.json` trains on a declarative scenario config (e.g.
// scenarios/dense_traffic.json) instead of the built-in cooperative
// lane-change; --learners is ignored. `--scenario-vehicles N` overrides the
// config's traffic.num_vehicles (the V ∈ {64, 128, 256} density sweep).
//
// `--curves prefix` additionally writes <prefix>_reward.svg /
// <prefix>_collision.svg / <prefix>_success.svg learning-curve plots.
// The three `--*-out` flags enable the observability layer
// (docs/OBSERVABILITY.md): a metrics snapshot, a Chrome trace, and the
// structured per-episode telemetry stream.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/flags.h"
#include "common/stats.h"
#include "hero/hero_trainer.h"
#include "obs/obs.h"
#include "sim/scenario.h"
#include "viz/plot.h"

using namespace hero;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string out = flags.get_string("out", "hero_ckpt");
  const int skill_episodes = flags.get_int("skill-episodes", 400);
  const int episodes = flags.get_int("episodes", 2000);
  const int learners = flags.get_int("learners", 3);
  const std::string scenario_path = flags.get_string("scenario", "");
  const int scenario_vehicles = flags.get_int("scenario-vehicles", 0);
  const unsigned seed = static_cast<unsigned>(flags.get_int("seed", 1));
  const bool use_opp = flags.get_bool("opponent-model", true);
  const bool sync_term = flags.get_bool("synchronous-termination", false);
  const std::string curves = flags.get_string("curves", "");
  const int hl_warmup = flags.get_int("hl-warmup", -1);
  const int hl_batch = flags.get_int("hl-batch", -1);
  const int num_workers = flags.get_int("num-workers", 1);
  const int batch_envs = flags.get_int("batch-envs", 0);
  const int hidden = flags.get_int("hidden", 0);
  const obs::Outputs obs_out = obs::configure(flags);
  flags.check_unknown();

  Rng rng(seed);
  sim::Scenario scenario;
  if (!scenario_path.empty()) {
    try {
      scenario = sim::load_scenario(scenario_path, scenario_vehicles);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  } else {
    scenario = sim::cooperative_lane_change(learners);
  }
  core::HeroConfig cfg;
  cfg.high.use_opponent_model = use_opp;
  cfg.skill.termination.synchronous = sync_term;
  if (hl_warmup >= 0) cfg.high.warmup_transitions = static_cast<std::size_t>(hl_warmup);
  if (hl_batch > 0) cfg.high.batch = static_cast<std::size_t>(hl_batch);
  cfg.num_workers = std::max(1, num_workers);
  cfg.batch_envs = std::max(0, batch_envs);
  if (hidden > 0) {
    // Serving-scale networks (docs/SERVING.md): one knob widens every net.
    // The checkpoint manifest records the widths, so downstream tools adapt
    // without repeating this flag.
    const auto h = static_cast<std::size_t>(hidden);
    cfg.high.hidden = {h, h};
    cfg.skill.sac.hidden = {h, h};
    cfg.opponent.hidden = {h};
  }
  core::HeroTrainer trainer(scenario, cfg, rng);

  {
    std::string canonical;
    for (int i = 1; i < argc; ++i) {
      canonical += argv[i];
      canonical += ' ';
    }
    obs::RunManifest manifest = obs::default_manifest("hero_train");
    manifest.seed = static_cast<long long>(seed);
    manifest.num_workers = cfg.num_workers;
    manifest.batch_envs = cfg.batch_envs;
    manifest.config_digest = obs::config_digest(canonical);
    obs::set_run_manifest(manifest);
  }

  std::printf("stage 1: training %d skills x %d episodes...\n", 3, skill_episodes);
  trainer.train_skills(skill_episodes, rng, [&](core::Option o, int ep, double r) {
    if ((ep + 1) % std::max(1, skill_episodes / 4) == 0) {
      std::printf("  [%s] ep %d  reward %.2f\n", core::option_name(o), ep + 1, r);
    }
  });

  std::printf("stage 2: cooperative training, %d episodes...\n", episodes);
  std::vector<rl::EpisodeStats> stats;
  MovingAverage rew(100), col(100), suc(100);
  trainer.train(episodes, rng, [&](int ep, const rl::EpisodeStats& s) {
    stats.push_back(s);
    rew.add(s.team_reward);
    col.add(s.collision ? 1.0 : 0.0);
    suc.add(s.success ? 1.0 : 0.0);
    if ((ep + 1) % std::max(1, episodes / 10) == 0) {
      std::printf("  ep %5d  reward %7.2f  collision %.2f  success %.2f\n", ep + 1,
                  rew.value(), col.value(), suc.value());
    }
  });

  std::filesystem::create_directories(out);
  trainer.save(out);
  std::printf("checkpoint written to %s/\n", out.c_str());

  if (!curves.empty()) {
    auto metric_plot = [&](const char* metric, const char* ylabel, auto extract) {
      std::vector<double> series;
      MovingAverage ma(100);
      for (const auto& s : stats) series.push_back(ma.add(extract(s)));
      viz::PlotOptions opts;
      opts.title = std::string("HERO training: ") + ylabel;
      opts.y_label = ylabel;
      const std::string path = curves + "_" + metric + ".svg";
      viz::plot_series({{"hero", series}}, opts, path);
      std::printf("curve written to %s\n", path.c_str());
    };
    metric_plot("reward", "episode reward",
                [](const rl::EpisodeStats& s) { return s.team_reward; });
    metric_plot("collision", "collision rate",
                [](const rl::EpisodeStats& s) { return s.collision ? 1.0 : 0.0; });
    metric_plot("success", "merge success rate",
                [](const rl::EpisodeStats& s) { return s.success ? 1.0 : 0.0; });
  }
  obs::finalize(obs_out);
  return 0;
}
