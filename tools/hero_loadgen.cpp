// hero_loadgen — load generator and latency harness for hero_serve
// (docs/SERVING.md §Load testing).
//
// Socket mode (default): N simulated clients, each on its own ThreadPool
// worker with its own unix-socket connection and its own LaneWorld, drive
// real episodes through the server — features come from
// fill_request_from_world, returned commands step the world. Arrivals are
// open-loop Poisson at --rate requests/sec per client (0 = closed loop).
// Every response is matched to its request; a missing or mismatched response
// is a dropped request and fails the run.
//
//   hero_loadgen --socket /tmp/hero_serve.sock [--clients 8] [--requests 200]
//                [--window 1] [--rate 0] [--synthetic] [--explore] [--seed 7]
//                [--reload-every 0 --reload-dir ckpt/]   (hot reload under load)
//                [--shutdown]                            (stop the server after)
//
// In-process mode (--in-process): no sockets — the same PolicyEngine the
// server runs is driven directly, C concurrent sessions per scheduling tick,
// once with cross-request batching (one act_batch of C) and once batch-size-1
// (C act_batch calls), same worlds, same tick count. This isolates the fused
// pass from transport noise. --min-speedup gates the median per-request
// cost: each side's median tick (every client served once) over the client
// count, b1 against batched.
//
//   hero_loadgen --in-process --ckpt ckpt/ [--clients 16] [--ticks 200]
//                [--warmup 20] [--min-speedup 2.0]
//
// Both modes accept the observability flags (--metrics-out/--metrics-every/
// --telemetry-out) with the same rejection rules as every other tool.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "hero/checkpoint.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/policy_engine.h"
#include "serve/request_builder.h"
#include "sim/lane_world.h"
#include "sim/scenario.h"

using namespace hero;

namespace {

const obs::HistogramOptions kClientLatencyHist{/*lo=*/1.0, /*hi=*/1e7,
                                               /*buckets=*/64,
                                               /*log_scale=*/true};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

struct LatencySummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
};

LatencySummary summarize(std::vector<double>& latencies) {
  LatencySummary s;
  if (latencies.empty()) return s;
  std::sort(latencies.begin(), latencies.end());
  double sum = 0.0;
  for (double v : latencies) sum += v;
  s.mean_us = sum / static_cast<double>(latencies.size());
  s.p50_us = percentile(latencies, 0.50);
  s.p99_us = percentile(latencies, 0.99);
  return s;
}

void observe_latencies(const std::vector<double>& latencies) {
  if (!obs::metrics_enabled()) return;
  auto& hist = obs::Registry::instance().histogram("serve.client_latency_us",
                                                   kClientLatencyHist);
  for (double v : latencies) hist.observe(v);
}

// --- socket mode -----------------------------------------------------------

struct ClientResult {
  std::vector<double> latencies_us;
  long responses = 0;
  long resets = 0;
  std::string error;  // non-empty = the client aborted (dropped requests)
};

struct SocketRun {
  std::string socket_path;
  int clients = 8;
  int requests = 200;
  int window = 1;     // in-flight requests per client (1 = closed loop)
  double rate = 0.0;  // per-client requests/sec; 0 = as fast as the window allows
  bool synthetic = false;  // replay one fixed observation; skip sim stepping
  bool explore = false;
  unsigned seed = 7;
  int reload_every = 0;  // client 0 reloads after every N of its requests
  std::string reload_dir;
  int learners = 3;
};

void run_client(const SocketRun& run, int idx, ClientResult* out) {
  try {
    serve::ServeClient client(run.socket_path);
    Rng rng(run.seed + 1000u * static_cast<unsigned>(idx + 1));
    auto scenario = sim::cooperative_lane_change(run.learners);
    sim::LaneWorld world(scenario.config);

    serve::Hello hello;
    hello.learners = static_cast<std::uint32_t>(world.num_learners());
    hello.hl_dim = static_cast<std::uint32_t>(world.high_level_obs_dim());
    hello.ll_dim = static_cast<std::uint32_t>(world.low_level_obs_dim());
    hello.num_lanes = static_cast<std::uint32_t>(world.track().num_lanes());
    hello.explore = run.explore ? 1 : 0;
    hello.seed = run.seed + 7919u * static_cast<unsigned>(idx + 1);
    client.hello(hello);

    out->latencies_us.reserve(static_cast<std::size_t>(run.requests));
    world.reset(rng);
    bool fresh = true;
    serve::ActRequest req;
    std::vector<sim::TwistCmd> cmds(
        static_cast<std::size_t>(world.num_learners()));
    std::vector<double> send_us(static_cast<std::size_t>(run.requests), 0.0);
    const int window = std::max(1, run.window);

    // Bounded-lag async control loop: up to `window` requests in flight; the
    // world steps with the most recently received commands. window=1 is the
    // classic closed loop (each observation waits for its command). With
    // --rate, sends follow an open-loop Poisson schedule — it advances
    // regardless of service time, so a slow server accumulates backlog
    // instead of silently throttling the offered load.
    double next_send_us = obs::now_us();
    int sent = 0;
    int received = 0;
    while (received < run.requests) {
      while (sent < run.requests && sent - received < window) {
        if (run.rate > 0.0) {
          const double u = std::max(rng.uniform(), 1e-12);
          next_send_us += -std::log(u) / run.rate * 1e6;
          const double ahead_us = next_send_us - obs::now_us();
          if (ahead_us > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(static_cast<long long>(ahead_us)));
          }
        }
        if (!run.synthetic || sent == 0) {
          // --synthetic replays the first observation for every request
          // (episode-start semantics each time): client-side cost collapses
          // to encode+syscalls, so the measurement stresses the server, not
          // the client's physics. Standard fixed-query loadgen practice.
          serve::fill_request_from_world(world, fresh, &req);
        }
        req.reset = run.synthetic ? 1 : req.reset;
        req.request_id = static_cast<std::uint64_t>(sent) + 1;
        send_us[static_cast<std::size_t>(sent)] = obs::now_us();
        client.queue_act(req);
        // Rate-paced sends must hit the wire on schedule; unpaced bursts
        // coalesce into one write() after the loop.
        if (run.rate > 0.0) client.flush();
        fresh = false;
        ++sent;
      }
      client.flush();

      const serve::ActResponse resp = client.recv_act();
      if (resp.request_id < 1 ||
          resp.request_id > static_cast<std::uint64_t>(sent)) {
        out->error = "response id out of range";
        return;
      }
      out->latencies_us.push_back(
          obs::now_us() - send_us[static_cast<std::size_t>(resp.request_id - 1)]);
      ++out->responses;
      ++received;

      if (!run.synthetic) {
        for (std::size_t k = 0; k < cmds.size(); ++k) {
          cmds[k].linear = resp.linear[k];
          cmds[k].angular = resp.angular[k];
        }
        world.step(cmds, rng);
        if (world.done()) {
          world.reset(rng);
          fresh = true;
          ++out->resets;
        }
      }

      if (idx == 0 && run.reload_every > 0 && received % run.reload_every == 0 &&
          received < run.requests) {
        // Drain the window first: the server answers frames in order, so a
        // Reload sent with acts still in flight would interleave their
        // responses before the ReloadAck.
        while (received < sent) {
          const serve::ActResponse drain = client.recv_act();
          out->latencies_us.push_back(
              obs::now_us() -
              send_us[static_cast<std::size_t>(drain.request_id - 1)]);
          ++out->responses;
          ++received;
        }
        const serve::ReloadAck ack = client.reload(run.reload_dir);
        if (!ack.ok) {
          out->error = "reload rejected: " + ack.message;
          return;
        }
      }
    }
  } catch (const std::exception& e) {
    out->error = e.what();
  }
}

int run_socket_mode(const SocketRun& run, bool shutdown_after) {
  runtime::ThreadPool pool(static_cast<std::size_t>(run.clients));
  std::vector<ClientResult> results(static_cast<std::size_t>(run.clients));

  const double t0 = obs::now_us();
  pool.parallel_for(static_cast<std::size_t>(run.clients),
                    [&](std::size_t i) { run_client(run, static_cast<int>(i), &results[i]); });
  const double wall_s = (obs::now_us() - t0) * 1e-6;

  long responses = 0;
  long resets = 0;
  long dropped = 0;
  std::vector<double> latencies;
  for (const auto& res : results) {
    responses += res.responses;
    resets += res.resets;
    dropped += run.requests - res.responses;
    latencies.insert(latencies.end(), res.latencies_us.begin(),
                     res.latencies_us.end());
    if (!res.error.empty()) {
      std::fprintf(stderr, "hero_loadgen: client failed: %s\n",
                   res.error.c_str());
    }
  }
  observe_latencies(latencies);
  const LatencySummary lat = summarize(latencies);
  const long expected = static_cast<long>(run.clients) * run.requests;
  const double qps = wall_s > 0.0 ? static_cast<double>(responses) / wall_s : 0.0;

  std::printf(
      "hero_loadgen: %d clients x %d requests (%s, window %d, rate "
      "%.1f/s/client)\n",
      run.clients, run.requests, run.explore ? "explore" : "greedy",
      std::max(1, run.window), run.rate);
  std::printf("  responses   %ld / %ld (%ld dropped), %ld episode resets\n",
              responses, expected, dropped, resets);
  std::printf("  wall time   %.3f s   qps %.1f\n", wall_s, qps);
  std::printf("  latency us  p50 %.1f   p99 %.1f   mean %.1f\n", lat.p50_us,
              lat.p99_us, lat.mean_us);

  if (shutdown_after) {
    try {
      serve::ServeClient admin(run.socket_path);
      admin.shutdown_server();
      std::printf("  shutdown sent\n");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hero_loadgen: shutdown failed: %s\n", e.what());
      return 1;
    }
  }
  return dropped == 0 ? 0 : 1;
}

// --- in-process mode -------------------------------------------------------

struct BenchResult {
  double qps = 0.0;
  LatencySummary lat;
  // Median over measured ticks of the tick's summed call time — the cost of
  // serving every client once, which --min-speedup compares. Both sides step
  // the same worlds, so tick t carries the same requests either way. Unlike
  // qps (served requests over summed call time), a preempted call moves it
  // by one rank of `ticks`, not by its whole stall; and unlike a median over
  // calls, it counts b1's option-selecting calls, which are a minority of
  // its calls but part of every b16 call.
  double tick_cost_p50_us = 0.0;
};

// Drives `clients` concurrent sessions for `ticks` scheduling ticks.
// `batch_size` is the cross-request batch the engine sees: clients (one fused
// pass per tick) or 1 (each request served alone — the no-batching baseline).
BenchResult run_in_process(serve::PolicyEngine& engine, int clients, int ticks,
                           int warmup, unsigned seed, std::size_t batch_size) {
  const int n = engine.learners();
  std::vector<std::uint32_t> sessions;
  std::vector<sim::LaneWorld> worlds;
  std::vector<Rng> rngs;
  std::vector<serve::ActRequest> reqs(static_cast<std::size_t>(clients));
  std::vector<bool> fresh(static_cast<std::size_t>(clients), true);
  auto scenario = sim::cooperative_lane_change(n);
  for (int c = 0; c < clients; ++c) {
    sessions.push_back(engine.open_session(seed + static_cast<unsigned>(c),
                                           /*explore=*/false));
    worlds.emplace_back(scenario.config);
    rngs.emplace_back(seed + 31u * static_cast<unsigned>(c + 1));
    worlds.back().reset(rngs.back());
  }

  std::vector<std::uint32_t> batch_sessions;
  std::vector<const serve::ActRequest*> batch_reqs;
  std::vector<serve::ActResponse> responses;
  std::vector<sim::TwistCmd> cmds(static_cast<std::size_t>(n));

  BenchResult out;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(clients) *
                    static_cast<std::size_t>(ticks));
  std::vector<double> tick_costs;  // per measured tick: summed call time
  double busy_us = 0.0;
  long served = 0;

  for (int t = 0; t < warmup + ticks; ++t) {
    const bool measured = t >= warmup;
    double tick_us = 0.0;
    for (int c = 0; c < clients; ++c) {
      serve::fill_request_from_world(worlds[static_cast<std::size_t>(c)],
                                     fresh[static_cast<std::size_t>(c)],
                                     &reqs[static_cast<std::size_t>(c)]);
      reqs[static_cast<std::size_t>(c)].request_id =
          static_cast<std::uint64_t>(t) * static_cast<std::uint64_t>(clients) +
          static_cast<std::uint64_t>(c) + 1;
      fresh[static_cast<std::size_t>(c)] = false;
    }
    // One scheduling tick: the queue holds `clients` requests; serve it in
    // groups of batch_size fused passes.
    for (int base = 0; base < clients;
         base += static_cast<int>(batch_size)) {
      const int count =
          std::min(clients - base, static_cast<int>(batch_size));
      batch_sessions.clear();
      batch_reqs.clear();
      for (int c = base; c < base + count; ++c) {
        batch_sessions.push_back(sessions[static_cast<std::size_t>(c)]);
        batch_reqs.push_back(&reqs[static_cast<std::size_t>(c)]);
      }
      const double t0 = obs::now_us();
      engine.act_batch(batch_sessions, batch_reqs, &responses);
      const double dt_us = obs::now_us() - t0;
      if (measured) {
        busy_us += dt_us;
        served += count;
        tick_us += dt_us;
        for (int c = 0; c < count; ++c) latencies.push_back(dt_us);
      }
      for (int c = 0; c < count; ++c) {
        const auto& resp = responses[static_cast<std::size_t>(c)];
        const int w = base + c;
        for (std::size_t k = 0; k < cmds.size(); ++k) {
          cmds[k].linear = resp.linear[k];
          cmds[k].angular = resp.angular[k];
        }
        worlds[static_cast<std::size_t>(w)].step(
            cmds, rngs[static_cast<std::size_t>(w)]);
        if (worlds[static_cast<std::size_t>(w)].done()) {
          worlds[static_cast<std::size_t>(w)].reset(
              rngs[static_cast<std::size_t>(w)]);
          fresh[static_cast<std::size_t>(w)] = true;
        }
      }
    }
    if (measured) tick_costs.push_back(tick_us);
  }

  for (std::uint32_t s : sessions) engine.close_session(s);
  observe_latencies(latencies);
  out.lat = summarize(latencies);
  out.qps = busy_us > 0.0 ? static_cast<double>(served) / (busy_us * 1e-6) : 0.0;
  std::sort(tick_costs.begin(), tick_costs.end());
  out.tick_cost_p50_us = percentile(tick_costs, 0.50);
  return out;
}

int run_in_process_mode(const std::string& ckpt, int clients, int ticks,
                        int warmup, unsigned seed, double min_speedup) {
  core::HeroConfig cfg;
  auto scenario = sim::cooperative_lane_change(core::read_manifest(ckpt).learners);
  serve::PolicyEngine engine(scenario, cfg, ckpt);

  const BenchResult batched = run_in_process(
      engine, clients, ticks, warmup, seed, static_cast<std::size_t>(clients));
  const BenchResult single =
      run_in_process(engine, clients, ticks, warmup, seed, 1);
  const double speedup =
      single.qps > 0.0 ? batched.qps / single.qps : 0.0;
  // The gate: median per-request cost, b1 against the batched side (each
  // side's median tick cost over `clients` requests).
  const double cost_speedup =
      batched.tick_cost_p50_us > 0.0
          ? single.tick_cost_p50_us / batched.tick_cost_p50_us
          : 0.0;

  std::printf("hero_loadgen --in-process: %d clients, %d ticks (+%d warmup)\n",
              clients, ticks, warmup);
  std::printf("  batched (b%d)  qps %10.1f   p50 %8.2f us   p99 %8.2f us\n",
              clients, batched.qps, batched.lat.p50_us, batched.lat.p99_us);
  std::printf("  single  (b1)   qps %10.1f   p50 %8.2f us   p99 %8.2f us\n",
              single.qps, single.lat.p50_us, single.lat.p99_us);
  std::printf("  cross-request batching speedup: %.2fx\n", speedup);
  std::printf("  median per-request cost: b%d %.3f us, b1 %.3f us (%.2fx)\n",
              clients, batched.tick_cost_p50_us / clients,
              single.tick_cost_p50_us / clients, cost_speedup);

  if (min_speedup > 0.0 && cost_speedup < min_speedup) {
    std::fprintf(stderr,
                 "hero_loadgen: median per-request cost speedup %.2fx below "
                 "required %.2fx\n",
                 cost_speedup, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool in_process = flags.get_bool("in-process", false);
  const std::string ckpt = flags.get_string("ckpt", "hero_ckpt");
  const std::string socket_path =
      flags.get_string("socket", "/tmp/hero_serve.sock");
  const int clients = flags.get_int("clients", in_process ? 16 : 8);
  const int requests = flags.get_int("requests", 200);
  const int window = flags.get_int("window", 1);
  const int ticks = flags.get_int("ticks", 200);
  const int warmup = flags.get_int("warmup", 20);
  const double rate = flags.get_double("rate", 0.0);
  const bool synthetic = flags.get_bool("synthetic", false);
  const bool explore = flags.get_bool("explore", false);
  const unsigned seed = static_cast<unsigned>(flags.get_int("seed", 7));
  const int reload_every = flags.get_int("reload-every", 0);
  const std::string reload_dir = flags.get_string("reload-dir", ckpt);
  const bool shutdown_after = flags.get_bool("shutdown", false);
  const double min_speedup = flags.get_double("min-speedup", 0.0);
  const int learners = flags.get_int("learners", 3);
  const obs::Outputs obs_out = obs::configure(flags);
  flags.check_unknown();

  if (clients < 1 || requests < 0 || ticks < 1 || warmup < 0) {
    std::fprintf(stderr, "hero_loadgen: invalid --clients/--requests/--ticks\n");
    return 2;
  }

  {
    std::string canonical;
    for (int i = 1; i < argc; ++i) {
      canonical += argv[i];
      canonical += ' ';
    }
    obs::RunManifest manifest = obs::default_manifest("hero_loadgen");
    manifest.seed = static_cast<long long>(seed);
    manifest.config_digest = obs::config_digest(canonical);
    obs::set_run_manifest(manifest);
  }

  int rc = 0;
  try {
    if (in_process) {
      rc = run_in_process_mode(ckpt, clients, ticks, warmup, seed, min_speedup);
    } else {
      SocketRun run;
      run.socket_path = socket_path;
      run.clients = clients;
      run.requests = requests;
      run.window = window;
      run.rate = rate;
      run.synthetic = synthetic;
      run.explore = explore;
      run.seed = seed;
      run.reload_every = reload_every;
      run.reload_dir = reload_dir;
      run.learners = learners;
      rc = run_socket_mode(run, shutdown_after);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hero_loadgen: %s\n", e.what());
    rc = 1;
  }
  obs::finalize(obs_out);
  return rc;
}
