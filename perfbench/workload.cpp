// perfbench workload binary: runs one benchmark workload in-process through the
// public training and serving entry points and prints one JSON object of raw
// measurements on stdout. perfbench/run.py builds this binary, runs it and
// turns the raw measurements into the benchmark's metrics (perfbench/README.md).
//
//   perfbench_workload --workload coop3_b16 --seed 1 --seconds 12 --trace 0
//                    --limit-us 2000 --workdir .bench_build/run
//
// Training workloads (coop3_b16, coop3_serial) time stage 1
// (HeroTrainer::train_skills), then stage 2 (HeroTrainer::train) in
// fixed-size chunks after a warm-up, then serve the policy they trained. The
// serving workload (serve_fleet32) trains a policy briefly and serves it.
// Serving runs an in-process ServeServer on its own thread and drives it
// from this thread: 32 sessions, reference-rate and closed-loop slices
// interleaved with an open-loop ladder of total rates. Every answer is
// compared bitwise with a golden answer computed in set-up by an in-process
// PolicyEngine.
//
// --trace 1 enables the program's phase tree (and, for serving, the serve.*
// metrics) for a traced pass, then repeats the work untraced so the caller
// can check determinism and measure tracing overhead. No span is added
// inside the program: this binary only times the calls it makes.
#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hero/hero_trainer.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "serve/policy_engine.h"
#include "serve/protocol.h"
#include "serve/request_builder.h"
#include "serve/server.h"
#include "sim/lane_world.h"
#include "sim/scenario.h"

using namespace hero;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Microseconds since the first call (the generator's time base).
double now_us() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Output helpers.

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"", static_cast<unsigned long long>(v));
  return buf;
}

// Latency lists in microseconds, to the nanosecond.
std::string us_list(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ',';
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", xs[i]);
    out += buf;
  }
  return out + "]";
}

std::string num_list(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ',';
    out += num(xs[i]);
  }
  return out + "]";
}

void phase_json(const obs::PhaseStat& p, std::string& out) {
  out += "{\"name\":\"" + p.name + "\",\"count\":" + std::to_string(p.count) +
         ",\"total_us\":" + num(p.total_us) + ",\"children\":[";
  for (std::size_t i = 0; i < p.children.size(); ++i) {
    if (i) out += ',';
    phase_json(p.children[i], out);
  }
  out += "]}";
}

// The merged phase tree as a JSON list of top-level nodes.
std::string phases_json() {
  const auto roots = obs::PhaseRegistry::instance().snapshot();
  std::string out = "[";
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (i) out += ',';
    phase_json(roots[i], out);
  }
  return out + "]";
}

// FNV-1a over raw bytes: the determinism digests.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void i64(long long v) { bytes(&v, sizeof(v)); }
};

// ---------------------------------------------------------------------------
// Training workloads.

// Stage-1 budget per learned skill. Model construction and stage 1 take a
// fixed seed, so skills_s times identical work in every run and workload;
// the workload seed drives stage 2 and the serving streams.
constexpr int kSkillEpisodes = 80;
constexpr unsigned kModelSeed = 20220612;
// Trainer set-ups per run; run.py reports the median as setup_s.
constexpr int kSetupReps = 5;
constexpr int kMaxWarmupChunks = 200;

// Both training workloads run cooperative_lane_change() (paper Fig. 6, 3
// learners).
struct TrainSpec {
  const char* name;
  int batch_envs;          // 0 = the serial HeroConfig default path
  int warmup_episodes;     // stage-2 episodes before timing starts, at least
  int chunk_episodes;      // episodes per timed HeroTrainer::train call
  // Timed chunks per --seconds: the timed work is fixed (the same training
  // window on every run and commit), sized to last about --seconds on a
  // 4-vCPU x86 virtual machine.
  double chunks_per_second;
};

const TrainSpec kTrainSpecs[] = {
    {"coop3_b16", 16, 64, 16, 25.0},
    {"coop3_serial", 0, 48, 4, 8.0},
};


core::HeroConfig make_config(const TrainSpec& spec) {
  core::HeroConfig cfg;
  cfg.batch_envs = spec.batch_envs;
  return cfg;
}

bool finite_net(nn::Mlp& net) {
  for (const auto& p : net.params()) {
    const nn::Matrix& m = *p.value;
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        if (!std::isfinite(m(r, c))) return false;
      }
    }
  }
  return true;
}

bool learning(core::HeroTrainer& trainer) {
  for (int k = 0; k < trainer.num_agents(); ++k) {
    if (trainer.agent(k).high_level().buffered() < trainer.config().high.warmup_transitions) {
      return false;
    }
  }
  return true;
}

// A non-finite loss poisons the parameters its gradient step touches, so
// finite parameters after a chunk mean every loss in it was finite.
bool finite_model(core::HeroTrainer& trainer) {
  for (int k = 0; k < trainer.num_agents(); ++k) {
    auto& agent = trainer.agent(k);
    if (!finite_net(agent.high_level().critic()) ||
        !finite_net(agent.high_level().actor().net())) {
      return false;
    }
    for (int j = 0; j < agent.opponents().num_opponents(); ++j) {
      if (!finite_net(agent.opponents().net(j))) return false;
    }
  }
  return true;
}

struct Chunk {
  long episodes = 0;
  long steps = 0;
  double seconds = 0.0;
  std::uint64_t digest = 0;
  long failed = 0;  // episodes with a non-finite reward, or all of a poisoned chunk
};

// Constructs the scenario and a trainer, its networks initialised from
// kModelSeed and `rng`, which is left where the construction left it. Every
// call is an identical set-up.
std::unique_ptr<core::HeroTrainer> set_up_trainer(const TrainSpec& spec, Rng* rng) {
  *rng = Rng(kModelSeed);
  return std::make_unique<core::HeroTrainer>(sim::cooperative_lane_change(3), make_config(spec),
                                             *rng);
}

// Stage 1 on `trainer`, timed into `seconds`; returns the digest of the
// skills' reward curves.
std::uint64_t train_skills_timed(core::HeroTrainer& trainer, Rng& rng, double* seconds) {
  const auto t0 = Clock::now();
  const auto curves = trainer.train_skills(kSkillEpisodes, rng);
  *seconds = seconds_since(t0);
  Digest d;
  for (const auto& [option, curve] : curves) {
    d.i64(static_cast<int>(option));
    for (double r : curve) d.f64(r);
  }
  return d.h;
}

struct Stage1 {
  std::unique_ptr<core::HeroTrainer> trainer;
  Rng rng;
  double seconds = 0.0;
  std::uint64_t digest = 0;
  std::string phases = "[]";
};

// A fresh trainer through stage 1, its rng then seeded from `seed` for
// stage 2.
Stage1 run_stage1(const TrainSpec& spec, unsigned seed, bool traced) {
  Stage1 s;
  s.trainer = set_up_trainer(spec, &s.rng);
  obs::set_phases_enabled(traced);
  obs::PhaseRegistry::instance().reset();
  s.digest = train_skills_timed(*s.trainer, s.rng, &s.seconds);
  if (traced) s.phases = phases_json();
  obs::set_phases_enabled(false);
  s.rng = Rng(seed);
  return s;
}

// Stage 1 once more on a fresh trainer (the same work), for its time only.
double time_stage1_again(const TrainSpec& spec) {
  Rng rng;
  const auto trainer = set_up_trainer(spec, &rng);
  double seconds = 0.0;
  train_skills_timed(*trainer, rng, &seconds);
  return seconds;
}

struct Stage2 {
  long warmup_failed = 0;
  std::vector<Chunk> chunks;
  std::string phases = "[]";
};

// Stage-2 warm-up, then `chunks` timed chunks.
Stage2 run_stage2(const TrainSpec& spec, core::HeroTrainer& trainer, Rng& rng,
                  long chunks, bool traced) {
  Stage2 pass;
  Chunk current;
  Digest digest;
  auto hook = [&](int, const rl::EpisodeStats& s) {
    ++current.episodes;
    current.steps += s.steps;
    if (!std::isfinite(s.team_reward)) ++current.failed;
    digest.f64(s.team_reward);
    digest.i64(s.steps);
    digest.i64(s.collision ? 1 : 0);
    digest.i64(s.success ? 1 : 0);
  };

  trainer.train(spec.warmup_episodes, rng, hook);
  // Whole chunks more until every learner's high-level replay holds its
  // warm-up transitions, so high-level updates run in every timed chunk.
  for (int i = 0; i < kMaxWarmupChunks && !learning(trainer); ++i) {
    trainer.train(spec.chunk_episodes, rng, hook);
  }
  pass.warmup_failed = current.failed + (finite_model(trainer) ? 0 : current.episodes);

  obs::set_phases_enabled(traced);
  obs::PhaseRegistry::instance().reset();
  for (long i = 0; i < chunks; ++i) {
    current = Chunk{};
    digest = Digest{};
    const auto t0 = Clock::now();
    trainer.train(spec.chunk_episodes, rng, hook);
    current.seconds = seconds_since(t0);
    current.digest = digest.h;
    // Outside the timed call: a poisoned model fails the whole chunk.
    if (!finite_model(trainer)) current.failed = current.episodes;
    pass.chunks.push_back(current);
  }
  if (traced) pass.phases = phases_json();
  obs::set_phases_enabled(false);
  return pass;
}

std::string pass_json(const Stage1& s1, const Stage2& s2) {
  std::string out = "{\"skills_s\":" + num(s1.seconds) +
                    ",\"skills_digest\":" + hex64(s1.digest) +
                    ",\"stage1_phases\":" + s1.phases +
                    ",\"warmup_failed\":" + std::to_string(s2.warmup_failed) +
                    ",\"chunks\":[";
  for (std::size_t i = 0; i < s2.chunks.size(); ++i) {
    const Chunk& c = s2.chunks[i];
    if (i) out += ',';
    out += "{\"episodes\":" + std::to_string(c.episodes) +
           ",\"steps\":" + std::to_string(c.steps) + ",\"seconds\":" + num(c.seconds) +
           ",\"digest\":" + hex64(c.digest) + ",\"failed\":" + std::to_string(c.failed) +
           "}";
  }
  return out + "],\"stage2_phases\":" + s2.phases + "}";
}

// ---------------------------------------------------------------------------
// Serving workload.

// One session per connection. A session (one vehicle group) never has two
// requests in flight: its next observation is due one control period later,
// and is sent as soon as both that time has come and the previous answer is
// back. Latency counts from the due time, so a stall shows as latency.
constexpr int kSessions = 32;
constexpr std::size_t kStreamLen = 256;  // requests per session stream (cycled)
constexpr int kCheckpointEpisodes = 32;  // stage-2 episodes of the served model
constexpr int kServeSetupReps = 3;
// Total request rates (1/s), ascending. The first is the reference rate, in
// the batcher's deadline regime (a batch of 16 needs 16000/s to fill within
// 1 ms). Above 48000/s the steps are 10% apart, to place the knee finely.
const double kLadder[] = {4000,   16000,  32000,  48000,  52800,  58080,
                          63888,  70277,  77304,  85035,  93538,  102892,
                          113181, 124499, 136949, 150644, 165708, 182279};
constexpr double kMinStepSamples = 3000;   // per ladder step: three p99 windows
constexpr double kRefSliceSamples = 1024;  // per reference slice: one p99 window
constexpr double kSatSliceS = 0.1;         // per closed-loop slice
constexpr std::size_t kMinRounds = 12;
constexpr double kDrainTimeoutUs = 2e6;
constexpr double kServeWarmupS = 2.0;

struct Stream {
  std::vector<std::vector<std::uint8_t>> frames;  // request_id = position
  std::vector<serve::ActResponse> golden;
};

// The served model: coop3_b16 through stage 1, then kCheckpointEpisodes of
// stage 2 from `seed`.
constexpr const TrainSpec& kServedSpec = kTrainSpecs[0];

// Trains and saves the served model; returns its stage-1 wall time.
double train_checkpoint(unsigned seed, const std::string& dir) {
  Stage1 s1 = run_stage1(kServedSpec, seed, false);
  s1.trainer->train(kCheckpointEpisodes, s1.rng);
  std::filesystem::create_directories(dir);
  s1.trainer->save(dir);
  return s1.seconds;
}

// Per-session observation streams, each starting a fresh episode, with the
// greedy answers of an in-process PolicyEngine: the vehicles' worlds are
// stepped by those answers, so every stream is a real closed-loop episode
// sequence, and a server answering correctly reproduces them bitwise.
std::vector<Stream> make_streams(serve::PolicyEngine& engine, unsigned seed) {
  const auto scenario = sim::cooperative_lane_change(engine.learners());
  std::vector<Stream> streams(kSessions);
  std::vector<std::uint32_t> ids;
  std::vector<sim::LaneWorld> worlds;
  std::vector<Rng> rngs;
  std::vector<serve::ActRequest> reqs(kSessions);
  std::vector<bool> fresh(kSessions, true);
  for (int s = 0; s < kSessions; ++s) {
    ids.push_back(engine.open_session(seed + static_cast<unsigned>(s), false));
    worlds.emplace_back(scenario.config);
    rngs.emplace_back(seed * 7919u + static_cast<unsigned>(s) + 1u);
    worlds.back().reset(rngs.back());
  }
  std::vector<const serve::ActRequest*> ptrs;
  for (auto& r : reqs) ptrs.push_back(&r);
  std::vector<serve::ActResponse> resp;
  std::vector<sim::TwistCmd> cmds(static_cast<std::size_t>(engine.learners()));
  for (std::size_t t = 0; t < kStreamLen; ++t) {
    for (int s = 0; s < kSessions; ++s) {
      auto& req = reqs[static_cast<std::size_t>(s)];
      serve::fill_request_from_world(worlds[static_cast<std::size_t>(s)],
                                     fresh[static_cast<std::size_t>(s)], &req);
      req.request_id = t;
      streams[static_cast<std::size_t>(s)].frames.emplace_back();
      serve::encode_act(req, streams[static_cast<std::size_t>(s)].frames.back());
      fresh[static_cast<std::size_t>(s)] = false;
    }
    engine.act_batch(ids, ptrs, &resp);
    for (int s = 0; s < kSessions; ++s) {
      const auto& r = resp[static_cast<std::size_t>(s)];
      streams[static_cast<std::size_t>(s)].golden.push_back(r);
      for (std::size_t k = 0; k < cmds.size(); ++k) cmds[k] = {r.linear[k], r.angular[k]};
      auto& world = worlds[static_cast<std::size_t>(s)];
      world.step(cmds, rngs[static_cast<std::size_t>(s)]);
      if (world.done()) {
        world.reset(rngs[static_cast<std::size_t>(s)]);
        fresh[static_cast<std::size_t>(s)] = true;
      }
    }
  }
  for (std::uint32_t id : ids) engine.close_session(id);
  return streams;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool matches(const serve::ActResponse& got, const serve::ActResponse& want) {
  return got.request_id == want.request_id && same_bits(got.linear, want.linear) &&
         same_bits(got.angular, want.angular) && got.option == want.option;
}

// What one ladder step (or the saturation step) measured.
struct StepResult {
  double rate = 0.0;  // offered total rate; 0 for the closed-loop step
  long sent = 0;
  long received = 0;
  long failed = 0;  // mismatched, errored or unanswered
  std::vector<double> latency_us;
  std::vector<double> gen_late_us;  // send time minus max(due, session free)
  double late_first_us = 0.0;       // mean send lateness, first/second half
  double late_second_us = 0.0;
  double wall_s = 0.0;              // first send to last answer
  std::string server = "null";      // traced: the server's own view of the step
};

// Client side of one session.
struct Session {
  std::size_t index = 0;  // which stream this session replays
  int fd = -1;
  serve::FrameReader reader;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::size_t pos = 0;  // stream position of the next request
  bool busy = false;    // a request is in flight
  double busy_due_us = 0.0;
  std::size_t busy_pos = 0;
  double free_since_us = 0.0;
  long next_k = 0;      // next scheduled send of the current step

  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session() {
    if (fd >= 0) ::close(fd);
  }
};

void write_all_blocking(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("serve: send failed");
    off += static_cast<std::size_t>(n);
  }
}

int connect_socket(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("serve: socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw std::runtime_error("serve: connect(" + path + ") failed");
  }
  return fd;
}

// Blocks for the next complete frame on a blocking socket.
void read_frame_blocking(Session& s, serve::MsgType* type,
                         std::vector<std::uint8_t>* payload) {
  std::uint8_t buf[4096];
  while (!s.reader.next(type, payload)) {
    const ssize_t n = ::read(s.fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("serve: connection closed during hello");
    s.reader.feed(buf, static_cast<std::size_t>(n));
  }
}

class Generator {
 public:
  Generator(const std::string& socket_path, const std::vector<Stream>& streams,
            const serve::Hello& hello)
      : streams_(streams), learners_(hello.learners) {
    sessions_.reserve(kSessions);
    std::vector<std::uint8_t> frame;
    serve::encode_hello(hello, frame);
    for (int i = 0; i < kSessions; ++i) {
      sessions_.push_back(std::make_unique<Session>());
      Session& s = *sessions_.back();
      s.index = static_cast<std::size_t>(i);
      s.fd = connect_socket(socket_path);
      write_all_blocking(s.fd, frame);
      serve::MsgType type;
      std::vector<std::uint8_t> payload;
      read_frame_blocking(s, &type, &payload);
      if (type != serve::MsgType::kHelloAck) {
        throw std::runtime_error("serve: hello rejected");
      }
      ::fcntl(s.fd, F_SETFL, ::fcntl(s.fd, F_GETFL, 0) | O_NONBLOCK);
    }
    fds_.resize(sessions_.size());
  }

  // Open loop at `rate` requests/s in total for `seconds`; sessions' phases
  // are staggered evenly across one control period.
  StepResult open_loop(double rate, double seconds) {
    StepResult r;
    r.rate = rate;
    const double period_us = 1e6 * kSessions / rate;
    const long per_session = std::max(1L, std::lround(seconds * rate / kSessions));
    const double t0 = now_us() + 1000.0;
    const double mid = t0 + 0.5 * seconds * 1e6;
    double late_sum[2] = {0, 0};
    long late_n[2] = {0, 0};
    for (auto& s : sessions_) s->next_k = 0;
    auto due = [&](std::size_t i, long k) {
      return t0 + period_us * (static_cast<double>(i) / kSessions + static_cast<double>(k));
    };
    double first_send = -1.0, last_recv = 0.0;
    const double deadline = t0 + seconds * 1e6 + kDrainTimeoutUs;
    while (true) {
      const double now = now_us();
      bool pending_sends = false;
      for (std::size_t i = 0; i < sessions_.size(); ++i) {
        Session& s = *sessions_[i];
        if (s.next_k >= per_session || s.fd < 0) continue;
        pending_sends = true;
        const double d = due(i, s.next_k);
        if (s.busy || d > now) continue;
        r.gen_late_us.push_back(now - std::max(d, s.free_since_us));
        const int half = d < mid ? 0 : 1;
        late_sum[half] += now - d;
        ++late_n[half];
        send(s, d);
        if (first_send < 0) first_send = now;
        ++s.next_k;
        ++r.sent;
      }
      bool any_busy = false;
      for (auto& s : sessions_) any_busy = any_busy || s->busy;
      if ((!pending_sends && !any_busy) || broken_ || now > deadline) break;
      receive(&r, &last_recv);
    }
    abandon_in_flight(&r);
    r.late_first_us = late_n[0] ? late_sum[0] / late_n[0] : 0.0;
    r.late_second_us = late_n[1] ? late_sum[1] / late_n[1] : 0.0;
    r.wall_s = first_send >= 0 ? (last_recv - first_send) * 1e-6 : 0.0;
    return r;
  }

  // Closed loop: every session re-sends as soon as its answer is back.
  StepResult closed_loop(double seconds) {
    StepResult r;
    const double t0 = now_us();
    const double stop = t0 + seconds * 1e6;
    double last_recv = t0;
    while (true) {
      const double now = now_us();
      bool any_busy = false;
      for (auto& s : sessions_) {
        if (!s->busy && s->fd >= 0 && now < stop) {
          send(*s, now);
          ++r.sent;
        }
        any_busy = any_busy || s->busy;
      }
      if (!any_busy || broken_ || now > stop + kDrainTimeoutUs) break;
      receive(&r, &last_recv);
    }
    abandon_in_flight(&r);
    r.wall_s = (last_recv - t0) * 1e-6;
    return r;
  }

  // True once a session was lost or a request went unanswered.
  bool broken() const { return broken_; }

 private:
  void send(Session& s, double due_us) {
    const auto& frame = streams_[s.index].frames[s.pos];
    s.out.insert(s.out.end(), frame.begin(), frame.end());
    s.busy = true;
    s.busy_due_us = due_us;
    s.busy_pos = s.pos;
    s.pos = (s.pos + 1) % kStreamLen;
    flush(s);
  }

  void flush(Session& s) {
    while (s.out_off < s.out.size()) {
      const ssize_t n = ::send(s.fd, s.out.data() + s.out_off, s.out.size() - s.out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        s.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      throw std::runtime_error("serve: connection lost");
    }
    s.out.clear();
    s.out_off = 0;
  }

  // Consumes every complete answer: checks it against its golden answer and
  // records its latency from the request's due time.
  void receive(StepResult* r, double* last_recv) {
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      const Session& s = *sessions_[i];
      fds_[i] = {s.fd, static_cast<short>(POLLIN | (s.out_off < s.out.size() ? POLLOUT : 0)),
                 0};
    }
    // The generator polls without sleeping: a sleeping thread can wake a
    // millisecond late on a virtual machine, delaying sends and answers.
    const timespec no_wait{};
    const int ready = ::ppoll(fds_.data(), fds_.size(), &no_wait, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("serve: ppoll failed");
    if (ready <= 0) return;
    std::uint8_t buf[64 * 1024];
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      Session& s = *sessions_[i];
      if ((fds_[i].revents & POLLOUT) != 0) flush(s);
      if ((fds_[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      while (true) {
        const ssize_t n = ::read(s.fd, buf, sizeof(buf));
        if (n > 0) {
          s.reader.feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        // The server closed the session (after an Error frame, or a crash):
        // its in-flight request is abandoned below.
        ::close(s.fd);
        s.fd = -1;
        broken_ = true;
        break;
      }
      serve::MsgType type;
      while (s.reader.next(&type, &payload_)) {
        const double now = now_us();
        if (!s.busy) throw std::runtime_error("serve: unexpected frame");
        const bool ok = type == serve::MsgType::kActResponse &&
                        serve::decode_act_response(payload_.data(), payload_.size(),
                                                   learners_, &resp_) &&
                        matches(resp_, streams_[s.index].golden[s.busy_pos]);
        if (!ok) ++r->failed;
        ++r->received;
        r->latency_us.push_back(now - s.busy_due_us);
        *last_recv = now;
        s.busy = false;
        s.free_since_us = now;
      }
    }
  }

  // Requests still unanswered after the drain timeout count as failed, and
  // end the run: a late answer would be matched to the wrong request.
  void abandon_in_flight(StepResult* r) {
    for (auto& s : sessions_) {
      if (s->busy) {
        ++r->failed;
        s->busy = false;
        broken_ = true;
      }
    }
  }

  bool broken_ = false;
  std::vector<std::uint8_t> payload_;
  serve::ActResponse resp_;
  const std::vector<Stream>& streams_;
  std::uint32_t learners_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<pollfd> fds_;
};

// Serving threads run pinned when the process may use at least three CPUs:
// the server on one, the generator on another. An idle-priority thread spins
// on the server's CPU, so that CPU never halts between batches: waking a
// halted virtual CPU can take milliseconds on a busy host, which is the
// host's latency, not the server's. The server preempts the spinner at once.
struct ServeCpus {
  int server = -1;
  int generator = -1;
};

ServeCpus pick_serve_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.size() < 3) return {};
  return {cpus[1], cpus[2]};
}

void pin_current_thread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

class IdleSpinner {
 public:
  explicit IdleSpinner(int cpu) {
    if (cpu < 0) return;
    thread_ = std::thread([this, cpu] {
      pin_current_thread(cpu);
      const sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
  ~IdleSpinner() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Runs ServeServer::run() on its own thread. stop() (also run by the
// destructor, so on every exit path) sends Shutdown on a fresh connection:
// the server answers what is queued and returns; then the thread is joined.
class ServerThread {
 public:
  ServerThread(serve::ServeServer& server, std::string socket_path, int cpu)
      : socket_path_(std::move(socket_path)), thread_([this, &server, cpu] {
          pin_current_thread(cpu);
          try {
            server.run();
          } catch (const std::exception& e) {
            error_ = e.what();
          }
        }) {}
  ~ServerThread() { stop(); }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    try {
      const int fd = connect_socket(socket_path_);
      std::vector<std::uint8_t> frame;
      serve::encode_shutdown(frame);
      write_all_blocking(fd, frame);
      ::close(fd);
    } catch (const std::exception&) {
      // The server already stopped (its loop threw); join below returns.
    }
    thread_.join();
  }
  // Read after stop().
  const std::string& error() const { return error_; }

 private:
  std::string socket_path_;
  std::string error_;
  std::thread thread_;
};

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2),
                   xs.end());
  return xs[xs.size() / 2];
}

std::string step_json(const StepResult& r) {
  return "{\"rate\":" + num(r.rate) + ",\"sent\":" + std::to_string(r.sent) + ",\"received\":" +
         std::to_string(r.received) + ",\"failed\":" + std::to_string(r.failed) +
         ",\"wall_s\":" + num(r.wall_s) + ",\"late_first_us\":" + num(r.late_first_us) +
         ",\"late_second_us\":" + num(r.late_second_us) +
         ",\"latency_us\":" + us_list(r.latency_us) +
         ",\"gen_late_us\":" + us_list(r.gen_late_us) + ",\"server\":" + r.server + "}";
}

// The server's own view of the step just run (traced passes only).
std::string server_json() {
  return "{\"metrics\":" + obs::Registry::instance().snapshot_json() +
         ",\"phases\":" + phases_json() + "}";
}

void reset_server_stats() {
  obs::Registry::instance().reset_values();
  obs::PhaseRegistry::instance().reset();
}

// One serving pass. After a closed-loop warm-up, the ladder runs in rounds:
// a reference slice (the lowest rate), a closed-loop slice, then the next
// ladder step. The ladder stops after two overloaded steps in a row (a lost
// request, or a median latency past the limit: higher rates would only queue
// longer; one such step can be a stall of the host); rounds of reference and
// closed-loop slices continue up to
// kMinRounds. Interleaving spreads every metric's samples over the whole run,
// so a slow spell of the host weighs on all of them alike. run.py judges each
// step.
std::string run_serve_pass(Generator& gen, double seconds, double limit_us,
                           bool traced) {
  const StepResult warm = gen.closed_loop(kServeWarmupS);
  obs::set_metrics_enabled(traced);
  obs::set_phases_enabled(traced);
  auto measure = [&](auto&& run_step) {
    if (traced) reset_server_stats();
    StepResult r = run_step();
    if (traced) r.server = server_json();
    return r;
  };
  const std::size_t n = std::size(kLadder);
  const double step_s = 0.4 * seconds / static_cast<double>(n - 1);
  const double ref_s = kRefSliceSamples / kLadder[0];
  std::string refs, sats, steps;
  bool climbing = true;
  int overloaded = 0;  // consecutive overloaded steps
  for (std::size_t round = 1; !gen.broken() && (climbing || round <= kMinRounds); ++round) {
    const StepResult ref = measure([&] { return gen.open_loop(kLadder[0], ref_s); });
    const StepResult sat = measure([&] { return gen.closed_loop(kSatSliceS); });
    refs += (refs.empty() ? "" : ",") + step_json(ref);
    sats += (sats.empty() ? "" : ",") + step_json(sat);
    if (!climbing || round >= n || gen.broken()) {
      climbing = false;
      continue;
    }
    const double rate = kLadder[round];
    const StepResult r = measure(
        [&] { return gen.open_loop(rate, std::max(kMinStepSamples / rate, step_s)); });
    steps += (steps.empty() ? "" : ",") + step_json(r);
    overloaded = r.failed == 0 && median(r.latency_us) <= limit_us ? 0 : overloaded + 1;
    climbing = overloaded < 2;
  }
  obs::set_metrics_enabled(false);
  obs::set_phases_enabled(false);
  return "{\"traced\":" + std::string(traced ? "true" : "false") +
         ",\"warmup\":" + step_json(warm) + ",\"reference\":[" + refs +
         "],\"saturation\":[" + sats + "],\"steps\":[" + steps + "]}";
}

// Closed-loop slices only, untraced: the traced run's overhead baseline.
std::string run_untraced_saturation(Generator& gen, int slices) {
  std::string sats;
  for (int i = 0; i < slices && !gen.broken(); ++i) {
    sats += (sats.empty() ? "" : ",") + step_json(gen.closed_loop(kSatSliceS));
  }
  return "{\"traced\":false,\"warmup\":null,\"reference\":[],\"saturation\":[" +
         sats + "],\"steps\":[]}";
}

// Serves the checkpoint in `ckpt` and measures it with run_serve_pass. The
// set-up runs `setup_reps` times, each timed into `setup_s`: load the model
// twice (golden and served), generate the streams with their golden answers,
// bind the server.
std::string serve_checkpoint(const std::string& ckpt, unsigned seed, double seconds,
                             bool trace, double limit_us, const std::string& workdir,
                             int setup_reps, std::vector<double>* setup_s) {
  serve::ServerConfig cfg;  // hero_serve's default batcher
  cfg.socket_path = workdir + "/serve.sock";
  const auto scenario = sim::cooperative_lane_change(3);
  const core::HeroConfig hero_cfg;
  std::vector<Stream> streams;
  std::unique_ptr<serve::PolicyEngine> engine;
  std::unique_ptr<serve::ServeServer> server;
  for (int r = 0; r < setup_reps; ++r) {
    server.reset();
    engine.reset();
    const auto t0 = Clock::now();
    {
      serve::PolicyEngine golden(scenario, hero_cfg, ckpt);
      streams = make_streams(golden, seed);
    }
    engine = std::make_unique<serve::PolicyEngine>(scenario, hero_cfg, ckpt);
    server = std::make_unique<serve::ServeServer>(*engine, cfg);
    setup_s->push_back(seconds_since(t0));
  }

  serve::Hello hello;
  hello.learners = static_cast<std::uint32_t>(engine->learners());
  hello.hl_dim = static_cast<std::uint32_t>(engine->hl_dim());
  hello.ll_dim = static_cast<std::uint32_t>(engine->ll_dim());
  hello.num_lanes = static_cast<std::uint32_t>(engine->num_lanes());

  const ServeCpus cpus = pick_serve_cpus();
  const IdleSpinner spinner(cpus.server);
  pin_current_thread(cpus.generator);
  ServerThread thread(*server, cfg.socket_path, cpus.server);
  Generator gen(cfg.socket_path, streams, hello);
  std::string passes = run_serve_pass(gen, seconds, limit_us, trace);
  if (trace) passes += "," + run_untraced_saturation(gen, kMinRounds);
  thread.stop();
  if (!thread.error().empty()) throw std::runtime_error("server: " + thread.error());
  return passes;
}

std::string run_serve_workload(unsigned seed, double seconds, bool trace,
                               double limit_us, const std::string& workdir) {
  const std::string ckpt = workdir + "/ckpt";
  const double skills_s = train_checkpoint(seed, ckpt);
  std::vector<double> setup_s;
  const std::string passes = serve_checkpoint(ckpt, seed, seconds, trace, limit_us, workdir,
                                              kServeSetupReps, &setup_s);
  const std::string skills_again_s = trace ? "null" : num(time_stage1_again(kServedSpec));
  return "{\"kind\":\"serve\",\"workload\":\"serve_fleet32\",\"setup_s\":" +
         num_list(setup_s) + ",\"skills_s\":" + num(skills_s) +
         ",\"skills_again_s\":" + skills_again_s + ",\"passes\":[" + passes + "]}";
}

// Training workloads. The end-to-end run ends by serving the policy it
// trained, through the serving workload's path: so p50_us, p99_us and
// max_rate_rps mean the same on every workload.
std::string run_train_workload(const TrainSpec& spec, unsigned seed, double seconds,
                               bool trace, double limit_us, const std::string& workdir) {
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    Rng rng;
    const auto t0 = Clock::now();
    const auto trainer = set_up_trainer(spec, &rng);
    setup_s.push_back(seconds_since(t0));
  }
  std::string out = "{\"kind\":\"train\",\"workload\":\"" + std::string(spec.name) +
                    "\",\"setup_s\":" + num_list(setup_s);
  const long chunks = std::max(1L, std::lround(seconds * spec.chunks_per_second));
  if (!trace) {
    Stage1 s1 = run_stage1(spec, seed, false);
    const Stage2 s2 = run_stage2(spec, *s1.trainer, s1.rng, chunks, false);
    const std::string ckpt = workdir + "/ckpt";
    std::filesystem::create_directories(ckpt);
    s1.trainer->save(ckpt);
    s1.trainer.reset();
    std::vector<double> serve_setup_s;
    const std::string passes = serve_checkpoint(ckpt, seed, seconds, false, limit_us, workdir,
                                                kServeSetupReps, &serve_setup_s);
    // A second stage-1 time from the end of the run: skills_s is the mean of
    // the two, so one slow spell of the host does not decide it.
    out += ",\"main\":" + pass_json(s1, s2) +
           ",\"skills_again_s\":" + num(time_stage1_again(spec)) +
           ",\"serve_setup_s\":" + num_list(serve_setup_s) + ",\"passes\":[" + passes + "]";
  } else {
    // Traced pass first, then the same training untraced from an identical
    // set-up: equal digests show that tracing does not perturb training, and
    // the chunk times give the tracing overhead.
    Stage1 t1 = run_stage1(spec, seed, true);
    const Stage2 t2 = run_stage2(spec, *t1.trainer, t1.rng, chunks, true);
    t1.trainer.reset();
    Stage1 u1 = run_stage1(spec, seed, false);
    const Stage2 u2 = run_stage2(spec, *u1.trainer, u1.rng, chunks, false);
    out += ",\"main\":" + pass_json(t1, t2) + ",\"replay\":" + pass_json(u1, u2);
  }
  return out + "}";
}

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double limit_us = 2000.0;
  std::string workdir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = static_cast<unsigned>(std::stoul(val));
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--limit-us") {
      a.limit_us = std::stod(val);
    } else if (key == "--workdir") {
      a.workdir = val;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("flags come in --name value pairs");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const Args args = parse_args(argc, argv);
    std::string out;
    if (args.workload == "serve_fleet32") {
      out = run_serve_workload(args.seed, args.seconds, args.trace, args.limit_us,
                               args.workdir);
    } else {
      const TrainSpec* spec = nullptr;
      for (const auto& s : kTrainSpecs) {
        if (args.workload == s.name) spec = &s;
      }
      if (spec == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
      out = run_train_workload(*spec, args.seed, args.seconds, args.trace, args.limit_us,
                               args.workdir);
    }
    std::fwrite(out.data(), 1, out.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 1;
  }
}
