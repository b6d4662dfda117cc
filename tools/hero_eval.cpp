// hero_eval — load a hero_train checkpoint and evaluate it greedily, on the
// clean simulator and/or the domain-shifted "real-world" configuration.
//
//   hero_eval --ckpt ckpt/ [--episodes 50] [--learners 3] [--seed 9]
//             [--scenario cfg.json] [--scenario-vehicles N]
//             [--real-world] [--svg episode.svg]
//             [--metrics-out m.json] [--trace-out t.json]
//             [--telemetry-out run.jsonl]
//
// `--svg` renders the first evaluation episode's trajectories. The three
// `--*-out` flags enable the observability layer (docs/OBSERVABILITY.md).
// `--scenario` evaluates on a declarative scenario config (must match the
// geometry the checkpoint was trained on); --learners is then ignored.
#include <cstdio>
#include <exception>

#include "common/flags.h"
#include "hero/checkpoint.h"
#include "hero/hero_trainer.h"
#include "obs/obs.h"
#include "rl/evaluation.h"
#include "sim/scenario.h"
#include "viz/trajectory.h"

using namespace hero;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string ckpt = flags.get_string("ckpt", "hero_ckpt");
  const int episodes = flags.get_int("episodes", 50);
  const int learners = flags.get_int("learners", 3);
  const std::string scenario_path = flags.get_string("scenario", "");
  const int scenario_vehicles = flags.get_int("scenario-vehicles", 0);
  const unsigned seed = static_cast<unsigned>(flags.get_int("seed", 9));
  const bool real_world = flags.get_bool("real-world", false);
  const std::string svg = flags.get_string("svg", "");
  const obs::Outputs obs_out = obs::configure(flags);
  flags.check_unknown();

  Rng rng(seed);
  sim::Scenario scenario;
  if (!scenario_path.empty()) {
    try {
      scenario = sim::load_scenario(scenario_path, scenario_vehicles);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hero_eval: %s\n", e.what());
      return 1;
    }
  } else {
    scenario = sim::cooperative_lane_change(learners);
  }
  core::HeroConfig cfg;
  core::CheckpointManifest on_disk;
  try {
    // Checkpoints are self-describing: adopt the manifest's network widths
    // so --hidden checkpoints evaluate without extra geometry flags.
    on_disk = core::read_manifest(ckpt);
    core::apply_manifest_geometry(on_disk, &cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hero_eval: %s\n", e.what());
    return 1;
  }
  core::HeroTrainer trainer(scenario, cfg, rng);

  {
    std::string canonical;
    for (int i = 1; i < argc; ++i) {
      canonical += argv[i];
      canonical += ' ';
    }
    obs::RunManifest manifest = obs::default_manifest("hero_eval");
    manifest.seed = static_cast<long long>(seed);
    manifest.config_digest = obs::config_digest(canonical);
    obs::set_run_manifest(manifest);
  }

  try {
    trainer.load(ckpt, on_disk);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hero_eval: %s\n", e.what());
    return 1;
  }
  std::printf("loaded checkpoint from %s/\n", ckpt.c_str());

  auto world_cfg =
      real_world ? sim::with_real_world_shift(scenario.config) : scenario.config;
  sim::LaneWorld world(world_cfg);

  if (!svg.empty()) {
    world.reset(rng);
    trainer.begin_episode();
    viz::TrajectoryRecorder rec;
    rec.start(world);
    while (!world.done()) {
      auto cmds = trainer.act(world, rng, /*explore=*/false);
      auto r = world.step(cmds, rng);
      rec.record(world, r.collision);
    }
    rec.render_svg(svg, world.track());
    std::printf("trajectory rendered to %s (%s)\n", svg.c_str(),
                rec.had_collision() ? "collision" : "clean");
  }

  auto summary = rl::evaluate(world, trainer, rng, episodes, scenario.merger_index,
                              scenario.merger_target_lane);
  std::printf("%s evaluation over %d episodes:\n",
              real_world ? "real-world (domain-shifted)" : "simulation", episodes);
  std::printf("  mean episode reward  %8.3f\n", summary.mean_reward);
  std::printf("  collision rate       %8.3f\n", summary.collision_rate);
  std::printf("  merge success rate   %8.3f\n", summary.success_rate);
  std::printf("  mean speed           %8.4f m/s\n", summary.mean_speed);
  obs::finalize(obs_out);
  return 0;
}
