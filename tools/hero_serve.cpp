// hero_serve — batched low-latency policy server (docs/SERVING.md).
//
// Loads a frozen hero_train checkpoint and serves act requests from N
// concurrent clients over a unix-domain socket, cross-request micro-batched
// so each scheduling tick runs ONE fused inference pass regardless of how
// many clients contributed observations.
//
//   hero_serve --ckpt ckpt/ [--socket /tmp/hero_serve.sock]
//              [--learners 0]        (0 = read from checkpoint.json)
//              [--max-batch 16] [--max-wait-us 1000] [--max-clients 64]
//              [--metrics-out m.json] [--metrics-every N]
//              [--telemetry-out run.jsonl]
//
// The server validates the checkpoint manifest at startup (incompatible
// checkpoints are rejected with a description of every mismatch) and again
// on every Reload frame — a failed hot reload leaves the active model
// untouched. Runs until a client sends Shutdown (hero_loadgen --shutdown, or
// any ServeClient::shutdown_server()).
#include <cstdio>
#include <exception>

#include "common/flags.h"
#include "hero/checkpoint.h"
#include "obs/obs.h"
#include "serve/policy_engine.h"
#include "serve/server.h"
#include "sim/scenario.h"

using namespace hero;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string ckpt = flags.get_string("ckpt", "hero_ckpt");
  const std::string socket_path =
      flags.get_string("socket", "/tmp/hero_serve.sock");
  int learners = flags.get_int("learners", 0);
  const int max_batch = flags.get_int("max-batch", 16);
  const int max_wait_us = flags.get_int("max-wait-us", 1000);
  const int max_clients = flags.get_int("max-clients", 64);
  const obs::Outputs obs_out = obs::configure(flags);
  flags.check_unknown();

  if (max_batch < 1 || max_wait_us < 0 || max_clients < 1) {
    std::fprintf(stderr,
                 "hero_serve: --max-batch/--max-clients must be >= 1 and "
                 "--max-wait-us >= 0\n");
    return 2;
  }

  {
    std::string canonical;
    for (int i = 1; i < argc; ++i) {
      canonical += argv[i];
      canonical += ' ';
    }
    obs::RunManifest manifest = obs::default_manifest("hero_serve");
    manifest.config_digest = obs::config_digest(canonical);
    obs::set_run_manifest(manifest);
  }

  // --learners 0 means "whatever the checkpoint was trained with": peek at
  // the manifest so operators don't have to repeat training geometry.
  if (learners <= 0) {
    try {
      learners = core::read_manifest(ckpt).learners;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hero_serve: %s\n", e.what());
      return 1;
    }
  }

  const auto scenario = sim::cooperative_lane_change(learners);
  core::HeroConfig cfg;
  try {
    serve::PolicyEngine engine(scenario, cfg, ckpt);
    serve::ServerConfig server_cfg;
    server_cfg.socket_path = socket_path;
    server_cfg.batcher.max_batch = static_cast<std::size_t>(max_batch);
    server_cfg.batcher.max_wait_us = static_cast<long long>(max_wait_us);
    server_cfg.max_clients = static_cast<std::size_t>(max_clients);
    serve::ServeServer server(engine, server_cfg);
    std::printf(
        "hero_serve: %s/ (%d learners, %d lanes) on %s  "
        "[max-batch %d, max-wait %dus]\n",
        ckpt.c_str(), engine.learners(), engine.num_lanes(),
        socket_path.c_str(), max_batch, max_wait_us);
    std::fflush(stdout);
    server.run();
    std::printf("hero_serve: shutdown after %ld requests / %ld responses, "
                "%ld reloads\n",
                server.requests_received(), server.responses_sent(),
                engine.reloads());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hero_serve: %s\n", e.what());
    obs::finalize(obs_out);
    return 1;
  }
  obs::finalize(obs_out);
  return 0;
}
