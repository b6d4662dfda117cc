// Serving-layer tests (docs/SERVING.md): wire protocol round-trips and
// robustness, micro-batcher scheduling, checkpoint manifest validation, and
// the load-bearing equivalence guarantees — batched serving is bitwise equal
// to batch-size-1 serving, which is bitwise equal to in-process greedy
// evaluation, and hot reload neither drops nor perturbs in-flight sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algos/coma.h"
#include "algos/dqn.h"
#include "algos/maac.h"
#include "algos/maddpg.h"
#include "hero/checkpoint.h"
#include "hero/hero_trainer.h"
#include "rl/evaluation.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/policy_engine.h"
#include "serve/protocol.h"
#include "serve/request_builder.h"
#include "serve/server.h"
#include "sim/lane_world.h"
#include "sim/scenario.h"
#include "support/hero_oracle.h"

namespace hero::serve {
namespace {

// --------------------------------------------------------- protocol ----

ActRequest sample_request(std::uint64_t id) {
  ActRequest req;
  req.request_id = id;
  req.reset = 1;
  req.y = {0.5, -1.5, 2.5};
  req.heading = {0.01, -0.02, 0.03};
  req.speed = {10.0, 11.0, 12.0};
  req.lane = {0, 1, 2};
  req.hl.assign(3 * 4, 0.25);
  req.ll.assign(3 * 3 * 2, -0.125);
  return req;
}

TEST(Protocol, ActRoundTrip) {
  const ActRequest req = sample_request(77);
  std::vector<std::uint8_t> buf;
  encode_act(req, buf);

  FrameReader reader;
  reader.feed(buf.data(), buf.size());
  MsgType type;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(reader.next(&type, &payload));
  ASSERT_EQ(type, MsgType::kAct);

  ActRequest out;
  ASSERT_TRUE(decode_act(payload.data(), payload.size(), 3, 4, 2, 3, &out));
  EXPECT_EQ(out.request_id, req.request_id);
  EXPECT_EQ(out.reset, req.reset);
  EXPECT_EQ(out.y, req.y);
  EXPECT_EQ(out.heading, req.heading);
  EXPECT_EQ(out.speed, req.speed);
  EXPECT_EQ(out.lane, req.lane);
  EXPECT_EQ(out.hl, req.hl);
  EXPECT_EQ(out.ll, req.ll);
}

// The encoder's bytes against a frame built here field by field, little-
// endian, in protocol.h's order: a change to how arrays are written must not
// move a single byte on the wire.
TEST(Protocol, ActFrameBytesAreStable) {
  ActRequest req;
  req.request_id = 0x0123456789abcdefULL;
  req.reset = 1;
  req.y = {0.5, -1.5};
  req.heading = {0.01, -0.02};
  req.speed = {10.0, 11.25};
  req.lane = {2, -1};
  for (int i = 0; i < 2 * 3; ++i) req.hl.push_back(0.25 * i - 1.0);
  for (int i = 0; i < 2 * 2 * 2; ++i) req.ll.push_back(-0.125 * i + 3.0);

  std::vector<std::uint8_t> want;
  const auto put = [&want](std::uint64_t v, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      want.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  };
  const auto put_doubles = [&put](const std::vector<double>& v) {
    for (double d : v) put(std::bit_cast<std::uint64_t>(d), 8);
  };
  put(0, 4);  // length, patched below
  put(static_cast<std::uint8_t>(MsgType::kAct), 1);
  put(req.request_id, 8);
  put(req.reset, 1);
  put_doubles(req.y);
  put_doubles(req.heading);
  put_doubles(req.speed);
  for (std::int32_t l : req.lane) put(static_cast<std::uint32_t>(l), 4);
  put_doubles(req.hl);
  put_doubles(req.ll);
  const std::uint32_t len = static_cast<std::uint32_t>(want.size() - 4);
  for (std::size_t b = 0; b < 4; ++b) want[b] = static_cast<std::uint8_t>(len >> (8 * b));

  std::vector<std::uint8_t> got = {0xAA};  // encoding appends
  encode_act(req, got);
  ASSERT_EQ(got.size(), want.size() + 1);
  EXPECT_EQ(got[0], 0xAA);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin() + 1));

  ActRequest back;
  ASSERT_TRUE(decode_act(want.data() + 5, want.size() - 5, 2, 3, 2, 2, &back));
  EXPECT_EQ(back.lane, req.lane);
  EXPECT_EQ(back.hl, req.hl);
  EXPECT_EQ(back.ll, req.ll);
}

TEST(Protocol, ResponseAndAdminRoundTrips) {
  std::vector<std::uint8_t> buf;

  ActResponse resp;
  resp.request_id = 9;
  resp.linear = {1.0, 2.0};
  resp.angular = {-0.5, 0.5};
  resp.option = {0, 3};
  encode_act_response(resp, buf);

  Reload reload;
  reload.dir = "ckpt_v2";
  encode_reload(reload, buf);

  ReloadAck ack;
  ack.ok = 1;
  ack.message = "reloaded";
  encode_reload_ack(ack, buf);

  ErrorMsg err;
  err.message = "nope";
  encode_error(err, buf);
  encode_shutdown(buf);

  FrameReader reader;
  reader.feed(buf.data(), buf.size());
  MsgType type;
  std::vector<std::uint8_t> payload;

  ASSERT_TRUE(reader.next(&type, &payload));
  ASSERT_EQ(type, MsgType::kActResponse);
  ActResponse r2;
  ASSERT_TRUE(decode_act_response(payload.data(), payload.size(), 2, &r2));
  EXPECT_EQ(r2.request_id, resp.request_id);
  EXPECT_EQ(r2.linear, resp.linear);
  EXPECT_EQ(r2.angular, resp.angular);
  EXPECT_EQ(r2.option, resp.option);

  ASSERT_TRUE(reader.next(&type, &payload));
  ASSERT_EQ(type, MsgType::kReload);
  Reload rl2;
  ASSERT_TRUE(decode_reload(payload.data(), payload.size(), &rl2));
  EXPECT_EQ(rl2.dir, reload.dir);

  ASSERT_TRUE(reader.next(&type, &payload));
  ASSERT_EQ(type, MsgType::kReloadAck);
  ReloadAck a2;
  ASSERT_TRUE(decode_reload_ack(payload.data(), payload.size(), &a2));
  EXPECT_EQ(a2.ok, 1);
  EXPECT_EQ(a2.message, "reloaded");

  ASSERT_TRUE(reader.next(&type, &payload));
  ASSERT_EQ(type, MsgType::kError);
  ErrorMsg e2;
  ASSERT_TRUE(decode_error(payload.data(), payload.size(), &e2));
  EXPECT_EQ(e2.message, "nope");

  ASSERT_TRUE(reader.next(&type, &payload));
  ASSERT_EQ(type, MsgType::kShutdown);
  EXPECT_FALSE(reader.next(&type, &payload));
  EXPECT_FALSE(reader.bad());
}

TEST(Protocol, FrameReaderReassemblesTornFrames) {
  std::vector<std::uint8_t> buf;
  encode_act(sample_request(1), buf);
  encode_act(sample_request(2), buf);

  FrameReader reader;
  MsgType type;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint64_t> ids;
  // Worst-case fragmentation: one byte at a time.
  for (std::size_t i = 0; i < buf.size(); ++i) {
    reader.feed(buf.data() + i, 1);
    while (reader.next(&type, &payload)) {
      ActRequest out;
      ASSERT_TRUE(decode_act(payload.data(), payload.size(), 3, 4, 2, 3, &out));
      ids.push_back(out.request_id);
    }
  }
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_FALSE(reader.bad());
}

TEST(Protocol, FrameReaderRejectsOversizeFrame) {
  // A length prefix beyond kMaxFrameBytes must poison the stream instead of
  // attempting a multi-gigabyte allocation.
  const std::uint32_t huge = (1u << 24) + 1;
  std::uint8_t hdr[5] = {static_cast<std::uint8_t>(huge & 0xff),
                         static_cast<std::uint8_t>((huge >> 8) & 0xff),
                         static_cast<std::uint8_t>((huge >> 16) & 0xff),
                         static_cast<std::uint8_t>((huge >> 24) & 0xff),
                         static_cast<std::uint8_t>(MsgType::kAct)};
  FrameReader reader;
  reader.feed(hdr, sizeof(hdr));
  MsgType type;
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(reader.next(&type, &payload));
  EXPECT_TRUE(reader.bad());
}

TEST(Protocol, DecodeActRejectsWrongDimsAndTruncation) {
  const ActRequest req = sample_request(5);
  std::vector<std::uint8_t> buf;
  encode_act(req, buf);
  FrameReader reader;
  reader.feed(buf.data(), buf.size());
  MsgType type;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(reader.next(&type, &payload));

  ActRequest out;
  // Encoded for 3 learners / hl 4 / ll 2 / 3 lanes; every other geometry
  // must be rejected.
  EXPECT_FALSE(decode_act(payload.data(), payload.size(), 2, 4, 2, 3, &out));
  EXPECT_FALSE(decode_act(payload.data(), payload.size(), 3, 5, 2, 3, &out));
  EXPECT_FALSE(decode_act(payload.data(), payload.size(), 3, 4, 3, 3, &out));
  EXPECT_FALSE(decode_act(payload.data(), payload.size(), 3, 4, 2, 2, &out));
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, payload.size() - 1}) {
    EXPECT_FALSE(decode_act(payload.data(), cut, 3, 4, 2, 3, &out));
  }
}

// ---------------------------------------------------------- batcher ----

TEST(MicroBatcher, FlushesWhenFull) {
  MicroBatcher b({/*max_batch=*/3, /*max_wait_us=*/1000});
  EXPECT_FALSE(b.should_flush(0));
  EXPECT_EQ(b.wait_budget_us(0), -1);
  b.enqueue(10, 0);
  b.enqueue(11, 1);
  EXPECT_FALSE(b.should_flush(2));
  b.enqueue(12, 2);
  EXPECT_TRUE(b.should_flush(2));  // full: no need to wait out the deadline

  std::vector<std::uint64_t> out;
  b.take(out);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{10, 11, 12}));
  EXPECT_EQ(b.pending(), 0u);
}

TEST(MicroBatcher, FlushesOnDeadline) {
  MicroBatcher b({/*max_batch=*/8, /*max_wait_us=*/100});
  b.enqueue(1, 1000);
  EXPECT_FALSE(b.should_flush(1050));
  EXPECT_EQ(b.wait_budget_us(1050), 50);
  EXPECT_TRUE(b.should_flush(1100));
  EXPECT_EQ(b.wait_budget_us(1200), 0);
}

TEST(MicroBatcher, TakeRespectsMaxBatchAndOrder) {
  MicroBatcher b({/*max_batch=*/2, /*max_wait_us=*/0});
  for (std::uint64_t t = 0; t < 5; ++t) b.enqueue(100 + t, static_cast<long long>(t));
  std::vector<std::uint64_t> out;
  b.take(out);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{100, 101}));
  b.take(out);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{102, 103}));
  b.take(out);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{104}));
  EXPECT_EQ(b.pending(), 0u);
}

// ------------------------------------------------ checkpoint manifest ----

std::string fresh_dir(const char* tag) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / tag).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Writes a deterministic (untrained) checkpoint and returns its directory.
std::string make_checkpoint(const char* tag, const core::HeroConfig& cfg,
                            unsigned seed = 11) {
  const std::string dir = fresh_dir(tag);
  Rng rng(seed);
  auto scenario = sim::cooperative_lane_change(3);
  core::HeroTrainer trainer(scenario, cfg, rng);
  trainer.save(dir);
  return dir;
}

TEST(CheckpointManifest, RoundTripsThroughDisk) {
  const std::string dir = make_checkpoint("ckpt_roundtrip", core::HeroConfig{});
  const core::CheckpointManifest m = core::read_manifest(dir);
  EXPECT_EQ(m.format_version, core::kCheckpointFormatVersion);
  EXPECT_EQ(m.learners, 3);
  EXPECT_FALSE(m.shapes.empty());

  // Rewrite and reread: the canonical JSON must survive its own parser.
  core::write_manifest(dir, m);
  EXPECT_EQ(core::manifest_to_json(m), core::manifest_to_json(core::read_manifest(dir)));
}

TEST(CheckpointManifest, RejectsVersionAndShapeMismatch) {
  const std::string dir = make_checkpoint("ckpt_tamper", core::HeroConfig{});
  const core::CheckpointManifest m = core::read_manifest(dir);

  core::CheckpointManifest bad = m;
  bad.format_version = core::kCheckpointFormatVersion + 1;
  core::write_manifest(dir, bad);
  auto scenario = sim::cooperative_lane_change(3);
  try {
    PolicyEngine engine(scenario, core::HeroConfig{}, dir);
    FAIL() << "version mismatch accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("format"), std::string::npos) << e.what();
  }

  bad = m;
  bad.learners = 5;
  core::write_manifest(dir, bad);
  EXPECT_THROW(
      { PolicyEngine engine(scenario, core::HeroConfig{}, dir); },
      std::runtime_error);

  // A directory without a manifest is not a checkpoint: nothing loads
  // unvalidated, and the error names the missing file.
  std::filesystem::remove(dir + "/checkpoint.json");
  try {
    PolicyEngine engine(scenario, core::HeroConfig{}, dir);
    FAIL() << "manifest-less directory accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint.json: missing"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointManifest, GeometryAppliesFromShapes) {
  core::CheckpointManifest m;
  m.shapes["agent0_actor"] = "34:48:48:4";
  m.shapes["agent0_opp0"] = "26:24:4";
  m.shapes["slow_down_actor"] = "8:40:40:4";
  core::HeroConfig cfg;
  core::apply_manifest_geometry(m, &cfg);
  EXPECT_EQ(cfg.high.hidden, (std::vector<std::size_t>{48, 48}));
  EXPECT_EQ(cfg.opponent.hidden, (std::vector<std::size_t>{24}));
  EXPECT_EQ(cfg.skill.sac.hidden, (std::vector<std::size_t>{40, 40}));
}

TEST(CheckpointManifest, GeometryRejectsMalformedShape) {
  core::CheckpointManifest m;
  m.shapes["agent0_actor"] = "34:x:4";
  core::HeroConfig cfg;
  EXPECT_THROW(core::apply_manifest_geometry(m, &cfg), std::runtime_error);
  m.shapes["agent0_actor"] = "34";
  EXPECT_THROW(core::apply_manifest_geometry(m, &cfg), std::runtime_error);
  // 2^64 + 1 must not wrap to a width of 1.
  m.shapes["agent0_actor"] = "34:18446744073709551617:4";
  EXPECT_THROW(core::apply_manifest_geometry(m, &cfg), std::runtime_error);
}

// What read_manifest makes of `text` as dir/checkpoint.json: the
// runtime_error message, or a note saying it returned, threw another type,
// or did not finish. The read runs on its own thread with a few seconds'
// wait, so a parser that spins fails the test instead of hanging the suite;
// a read still running is abandoned (leaked — a std::async future's
// destructor would wait for it).
std::string manifest_error_for(const std::string& dir, const std::string& text) {
  std::ofstream(dir + "/checkpoint.json") << text;
  auto read = std::make_unique<std::future<std::string>>(
      std::async(std::launch::async, [dir]() -> std::string {
        try {
          core::read_manifest(dir);
          return "returned without an error";
        } catch (const std::runtime_error& e) {
          return e.what();
        } catch (const std::exception& e) {
          return std::string("threw a non-runtime_error: ") + e.what();
        }
      }));
  if (read->wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
    (void)read.release();
    return "did not finish within 5 s";
  }
  return read->get();
}

TEST(CheckpointManifest, RejectsMalformedManifest) {
  const std::string dir = make_checkpoint("ckpt_malformed", core::HeroConfig{});
  std::ifstream in(dir + "/checkpoint.json");
  const std::string good((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string learners = "\"learners\": 3,";
  const std::string shapes = "\"shapes\": {";
  ASSERT_NE(good.find(learners), std::string::npos) << good;
  ASSERT_NE(good.find(shapes), std::string::npos) << good;
  const auto with_learners = [&](const std::string& value) {
    std::string text = good;
    return text.replace(text.find(learners), learners.size(),
                        "\"learners\": " + value + ",");
  };
  const std::string actor = "\"agent0_actor\": \"";
  ASSERT_NE(good.find(actor), std::string::npos) << good;
  const auto with_actor_shape = [&](const std::string& shape) {
    std::string text = good;
    const std::size_t at = text.find(actor) + actor.size();
    return text.replace(at, text.find('"', at) - at, shape);
  };

  struct Case {
    const char* what;
    std::string text;
    const char* field;  // the field the error must name
  };
  const std::vector<Case> cases = {
      {"truncated shapes object", good.substr(0, good.find(shapes)) + shapes + "\"abc}",
       "shapes"},
      {"integer past int range", with_learners("4294967299"), "learners"},
      {"fractional integer", with_learners("2.5"), "learners"},
      {"sign without digits", with_learners("-"), "learners"},
      {"integer past long long range", with_learners("99999999999999999999"),
       "learners"},
      {"missing field",
       std::string(good).erase(good.find(learners), learners.size()), "learners"},
      {"non-string shape",
       std::string(good).insert(good.find(shapes) + shapes.size(), "\"bogus\": 5, "),
       "shapes"},
      // Bounded by the checkpoint's own bytes before any model is sized.
      {"overflowing shape", with_actor_shape("34:18446744073709551617:4"),
       "agent0_actor"},
      {"shape past its tensor file", with_actor_shape("34:400000000:4"), "agent0_actor"},
      {"more learners than actor shapes", with_learners("2000000000"), "learners"},
      {"no learners", with_learners("0"), "learners"},
  };
  for (const Case& c : cases) {
    const std::string msg = manifest_error_for(dir, c.text);
    EXPECT_NE(msg.find("checkpoint.json"), std::string::npos) << c.what << ": " << msg;
    EXPECT_NE(msg.find(c.field), std::string::npos) << c.what << ": " << msg;
  }
  // The untouched manifest still reads.
  EXPECT_EQ(manifest_error_for(dir, good), "returned without an error");
}

// ----------------------------------------------- serving equivalence ----

// Two response vectors agree request by request, bit for bit.
void expect_same_responses(const std::vector<ActResponse>& a,
                           const std::vector<ActResponse>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].request_id, b[i].request_id);
    EXPECT_EQ(a[i].linear, b[i].linear) << "slot " << i;    // bitwise
    EXPECT_EQ(a[i].angular, b[i].angular) << "slot " << i;  // bitwise
    EXPECT_EQ(a[i].option, b[i].option) << "slot " << i;
  }
}

// kClients sessions in one mode, served as one batch by one engine and one
// request at a time by another: every answer must agree bitwise. In explore
// mode each session draws from its own stream, so its stochastic trajectory
// must not depend on which sessions share its batch.
void expect_batched_equals_batch_size_one(bool explore, int ticks) {
  const std::string dir = make_checkpoint("ckpt_equiv", core::HeroConfig{});
  auto scenario = sim::cooperative_lane_change(3);
  PolicyEngine batched(scenario, core::HeroConfig{}, dir);
  PolicyEngine single(scenario, core::HeroConfig{}, dir);

  constexpr int kClients = 4;
  std::vector<std::uint32_t> sa, sb;
  std::vector<sim::LaneWorld> worlds_a, worlds_b;
  std::vector<Rng> rngs_a, rngs_b;
  for (int c = 0; c < kClients; ++c) {
    sa.push_back(batched.open_session(100 + static_cast<unsigned>(c), explore));
    sb.push_back(single.open_session(100 + static_cast<unsigned>(c), explore));
    worlds_a.emplace_back(scenario.config);
    worlds_b.emplace_back(scenario.config);
    rngs_a.emplace_back(7u * static_cast<unsigned>(c + 1));
    rngs_b.emplace_back(7u * static_cast<unsigned>(c + 1));
    worlds_a.back().reset(rngs_a.back());
    worlds_b.back().reset(rngs_b.back());
  }

  std::vector<ActRequest> reqs(kClients);
  std::vector<ActResponse> batched_resp, one_resp;
  std::vector<ActResponse> single_resp(kClients);
  std::vector<sim::TwistCmd> cmds(3);
  // Untrained policies end episodes early (collisions), so each client
  // tracks its own fresh-episode flag and re-resets on done.
  std::vector<bool> fresh(kClients, true);
  for (int tick = 0; tick < ticks; ++tick) {
    std::vector<std::uint32_t> ids;
    std::vector<const ActRequest*> ptrs;
    for (int c = 0; c < kClients; ++c) {
      const auto s = static_cast<std::size_t>(c);
      fill_request_from_world(worlds_a[s], fresh[s], &reqs[s]);
      reqs[s].request_id = static_cast<std::uint64_t>(tick * kClients + c + 1);
      fresh[s] = false;
      ids.push_back(sa[s]);
      ptrs.push_back(&reqs[s]);
    }
    batched.act_batch(ids, ptrs, &batched_resp);

    for (int c = 0; c < kClients; ++c) {
      const auto s = static_cast<std::size_t>(c);
      single.act_batch({sb[s]}, {&reqs[s]}, &one_resp);
      single_resp[s] = one_resp[0];
    }
    expect_same_responses(batched_resp, single_resp);

    for (int c = 0; c < kClients; ++c) {
      const auto s = static_cast<std::size_t>(c);
      const auto& resp = batched_resp[s];
      for (std::size_t k = 0; k < cmds.size(); ++k) {
        cmds[k].linear = resp.linear[k];
        cmds[k].angular = resp.angular[k];
      }
      worlds_a[s].step(cmds, rngs_a[s]);
      worlds_b[s].step(cmds, rngs_b[s]);
      if (worlds_a[s].done()) {
        worlds_a[s].reset(rngs_a[s]);
        worlds_b[s].reset(rngs_b[s]);
        fresh[s] = true;
      }
    }
  }
}

TEST(ServingEquivalence, BatchedEqualsBatchSizeOne) {
  {
    SCOPED_TRACE("greedy");
    expect_batched_equals_batch_size_one(/*explore=*/false, /*ticks=*/25);
  }
  {
    SCOPED_TRACE("explore");
    expect_batched_equals_batch_size_one(/*explore=*/true, /*ticks=*/60);
  }
}

TEST(ServingEquivalence, ServedMatchesInProcessGreedy) {
  const std::string dir = make_checkpoint("ckpt_inproc", core::HeroConfig{});
  auto scenario = sim::cooperative_lane_change(3);
  PolicyEngine engine(scenario, core::HeroConfig{}, dir);

  // In-process: a trainer restored from the same checkpoint, acting through
  // Controller::act (HeroActEngine on a batch of one), and the scalar greedy
  // rule written out per agent over the same trainer's networks.
  Rng init_rng(99);
  core::HeroTrainer trainer(scenario, core::HeroConfig{}, init_rng);
  trainer.load(dir);
  core::oracle::GreedyHero oracle(trainer);

  const std::uint32_t session = engine.open_session(1, /*explore=*/false);
  Rng world_rng_a(4242), world_rng_b(4242), act_rng(1);
  sim::LaneWorld world_a(scenario.config), world_b(scenario.config);
  world_a.reset(world_rng_a);
  world_b.reset(world_rng_b);
  trainer.begin_episode();
  oracle.begin_episode();

  ActRequest req;
  std::vector<ActResponse> resp;
  std::vector<sim::TwistCmd> cmds(3);
  bool fresh = true;
  for (int tick = 0; tick < 30 && !world_a.done(); ++tick) {
    fill_request_from_world(world_a, fresh, &req);
    req.request_id = static_cast<std::uint64_t>(tick) + 1;
    fresh = false;
    engine.act_batch({session}, {&req}, &resp);

    const auto in_process = trainer.act(world_b, act_rng, /*explore=*/false);
    const auto ref = oracle.act(world_b);
    ASSERT_EQ(in_process.size(), 3u);
    ASSERT_EQ(ref.size(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(resp[0].linear[k], ref[k].linear) << "tick " << tick;    // bitwise
      EXPECT_EQ(resp[0].angular[k], ref[k].angular) << "tick " << tick;  // bitwise
      EXPECT_EQ(in_process[k].linear, ref[k].linear) << "tick " << tick;
      EXPECT_EQ(in_process[k].angular, ref[k].angular) << "tick " << tick;
      cmds[k].linear = ref[k].linear;
      cmds[k].angular = ref[k].angular;
    }
    world_a.step(cmds, world_rng_a);
    world_b.step(cmds, world_rng_b);
  }
}

TEST(ServingEquivalence, HotReloadPreservesSessionsAndOutputs) {
  const std::string dir = make_checkpoint("ckpt_reload", core::HeroConfig{});
  auto scenario = sim::cooperative_lane_change(3);
  PolicyEngine reloading(scenario, core::HeroConfig{}, dir);
  PolicyEngine steady(scenario, core::HeroConfig{}, dir);

  const std::uint32_t ra = reloading.open_session(3, false);
  const std::uint32_t rb = steady.open_session(3, false);
  Rng wr_a(9), wr_b(9);
  sim::LaneWorld world_a(scenario.config), world_b(scenario.config);
  world_a.reset(wr_a);
  world_b.reset(wr_b);

  ActRequest req;
  std::vector<ActResponse> resp_a, resp_b;
  std::vector<sim::TwistCmd> cmds(3);
  bool fresh = true;
  for (int tick = 0; tick < 20; ++tick) {
    if (tick == 7 || tick == 13) {
      // Reload to the same weights mid-stream: in-flight sessions must
      // carry over and outputs must not so much as flip a bit.
      reloading.reload(dir);
      EXPECT_TRUE(reloading.has_session(ra));
    }
    fill_request_from_world(world_a, fresh, &req);
    req.request_id = static_cast<std::uint64_t>(tick) + 1;
    fresh = false;
    reloading.act_batch({ra}, {&req}, &resp_a);
    steady.act_batch({rb}, {&req}, &resp_b);
    expect_same_responses(resp_a, resp_b);

    for (std::size_t k = 0; k < 3; ++k) {
      cmds[k].linear = resp_a[0].linear[k];
      cmds[k].angular = resp_a[0].angular[k];
    }
    world_a.step(cmds, wr_a);
    world_b.step(cmds, wr_b);
    if (world_a.done()) {
      world_a.reset(wr_a);
      world_b.reset(wr_b);
      fresh = true;
    }
  }
  EXPECT_EQ(reloading.reloads(), 2);
}

TEST(ServingEquivalence, ReloadAcrossWidthsAdoptsNewGeometry) {
  core::HeroConfig narrow;  // default widths
  core::HeroConfig wide;
  wide.high.hidden = {48, 48};
  wide.skill.sac.hidden = {48, 48};
  wide.opponent.hidden = {48};
  const std::string dir_narrow = make_checkpoint("ckpt_w32", narrow);
  const std::string dir_wide = make_checkpoint("ckpt_w48", wide);

  auto scenario = sim::cooperative_lane_change(3);
  PolicyEngine engine(scenario, core::HeroConfig{}, dir_narrow);
  const std::uint32_t session = engine.open_session(1, false);

  Rng wr(3);
  sim::LaneWorld world(scenario.config);
  world.reset(wr);
  ActRequest req;
  fill_request_from_world(world, true, &req);
  req.request_id = 1;
  std::vector<ActResponse> resp;
  engine.act_batch({session}, {&req}, &resp);

  // The checkpoint manifest carries its own widths: reloading a 48-wide
  // checkpoint into a server built for 32-wide weights must succeed, keep
  // sessions, and keep answering (obs dims are unchanged).
  engine.reload(dir_wide);
  EXPECT_TRUE(engine.has_session(session));
  req.request_id = 2;
  engine.act_batch({session}, {&req}, &resp);
  EXPECT_EQ(resp[0].request_id, 2u);

  // Reload rejection leaves the active (wide) model serving. A copy of the
  // wide checkpoint without its manifest is rejected like a missing one.
  const ActResponse wide_answer = resp[0];
  EXPECT_THROW(engine.reload(dir_wide + "/nonexistent"), std::runtime_error);
  const std::string dir_bare = fresh_dir("ckpt_bare");
  std::filesystem::copy(dir_wide, dir_bare, std::filesystem::copy_options::recursive);
  std::filesystem::remove(dir_bare + "/checkpoint.json");
  EXPECT_THROW(engine.reload(dir_bare), std::runtime_error);
  req.request_id = 3;
  engine.act_batch({session}, {&req}, &resp);
  EXPECT_EQ(resp[0].request_id, 3u);
  EXPECT_EQ(engine.reloads(), 1);

  // So does a manifest whose actor shape its tensor file cannot hold: it is
  // rejected before a model is sized from it, and the wide model answers
  // the same request bit for bit.
  const std::string dir_huge = fresh_dir("ckpt_huge");
  std::filesystem::copy(dir_wide, dir_huge, std::filesystem::copy_options::recursive);
  core::CheckpointManifest huge = core::read_manifest(dir_huge);
  huge.shapes["agent0_actor"] = "34:400000000:4";
  core::write_manifest(dir_huge, huge);
  EXPECT_THROW(engine.reload(dir_huge), std::runtime_error);
  engine.act_batch({session}, {&req}, &resp);
  EXPECT_EQ(resp[0].linear, wide_answer.linear);    // bitwise
  EXPECT_EQ(resp[0].angular, wide_answer.angular);  // bitwise
  EXPECT_EQ(resp[0].option, wide_answer.option);
  EXPECT_EQ(engine.reloads(), 1);
}

TEST(ServingEquivalence, EvaluateBatchIsWidthInvariant) {
  const std::string dir = make_checkpoint("ckpt_evalb", core::HeroConfig{});
  auto scenario = sim::cooperative_lane_change(3);
  Rng init_rng(5);
  core::HeroTrainer trainer(scenario, core::HeroConfig{}, init_rng);
  trainer.load(dir);

  const auto a = rl::evaluate_batch(scenario.config, trainer, 77, /*episodes=*/3,
                                    /*batch=*/1, scenario.merger_index,
                                    scenario.merger_target_lane);
  const auto b = rl::evaluate_batch(scenario.config, trainer, 77, /*episodes=*/3,
                                    /*batch=*/3, scenario.merger_index,
                                    scenario.merger_target_lane);
  EXPECT_EQ(a.mean_reward, b.mean_reward);  // bitwise
  EXPECT_EQ(a.collision_rate, b.collision_rate);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.mean_speed, b.mean_speed);
}

// ------------------------------------------------- baseline serving ----

// One act_rows_into call over kSlots independent worlds against a per-slot
// act() on each of them, in one explore mode. Slot 2 sits out every third
// tick. Commands must agree bitwise, and every slot's RNG must end in the
// same state: the batched path consumes exactly the draws of acting alone.
void expect_rows_match_per_slot_act(rl::Controller& ctl, const sim::Scenario& sc,
                                    bool explore) {
  constexpr std::size_t kSlots = 5;
  constexpr int kTicks = 12;
  std::vector<std::unique_ptr<sim::LaneWorld>> worlds;
  std::vector<Rng> world_rngs, batch_rngs, slot_rngs;
  for (std::size_t s = 0; s < kSlots; ++s) {
    worlds.push_back(std::make_unique<sim::LaneWorld>(sc.config));
    world_rngs.emplace_back(100 + s);
    batch_rngs.emplace_back(7 + s);
    slot_rngs.emplace_back(7 + s);
    worlds[s]->reset(world_rngs[s]);
  }
  const sim::LaneWorld& proto = *worlds[0];
  const int n = proto.num_learners();
  rl::ObsBatch batch;
  batch.configure(n, proto.high_level_obs_dim(), proto.low_level_obs_dim(),
                  proto.track().num_lanes());
  std::vector<Rng*> rng_ptrs;
  for (auto& r : batch_rngs) rng_ptrs.push_back(&r);
  std::vector<sim::TwistCmd> cmds(kSlots * static_cast<std::size_t>(n));
  std::vector<sim::TwistCmd> step_cmds(static_cast<std::size_t>(n));

  for (int tick = 0; tick < kTicks; ++tick) {
    batch.set_count(kSlots);
    for (std::size_t s = 0; s < kSlots; ++s) {
      if (s == 2 && tick % 3 == 1) {
        batch.slot(s).active = false;
        continue;
      }
      batch.set_slot_from_world(s, worlds[s]->batch_world(), 0, /*reset=*/tick == 0,
                                &batch_rngs[s]);
    }
    ctl.act_rows_into(batch, rng_ptrs.data(), explore, cmds.data());
    for (std::size_t s = 0; s < kSlots; ++s) {
      if (!batch.slot(s).active) continue;
      const auto ref = ctl.act(*worlds[s], slot_rngs[s], explore);
      ASSERT_EQ(ref.size(), static_cast<std::size_t>(n));
      for (int k = 0; k < n; ++k) {
        const sim::TwistCmd& got = cmds[s * static_cast<std::size_t>(n) +
                                        static_cast<std::size_t>(k)];
        const sim::TwistCmd& want = ref[static_cast<std::size_t>(k)];
        EXPECT_EQ(got.linear, want.linear)  // bitwise
            << "tick " << tick << " slot " << s << " agent " << k;
        EXPECT_EQ(got.angular, want.angular)
            << "tick " << tick << " slot " << s << " agent " << k;
        step_cmds[static_cast<std::size_t>(k)] = got;
      }
      worlds[s]->step(step_cmds, world_rngs[s]);
      if (worlds[s]->done()) worlds[s]->reset(world_rngs[s]);
    }
  }
  for (std::size_t s = 0; s < kSlots; ++s) {
    EXPECT_TRUE(batch_rngs[s].engine() == slot_rngs[s].engine()) << "slot " << s;
  }
}

TEST(BaselineServing, ActRowsMatchPerSlotAct) {
  const auto sc = sim::cooperative_lane_change(3);
  Rng rng(13);
  algos::DqnConfig dqn_cfg;
  dqn_cfg.eps_start = 0.5;  // both ε branches fire while exploring
  algos::IndependentDqnTrainer dqn(sc, dqn_cfg, rng);
  algos::ComaTrainer coma(sc, algos::ComaConfig{}, rng);
  algos::MaddpgTrainer maddpg(sc, algos::MaddpgConfig{}, rng);
  algos::MaacTrainer maac(sc, algos::MaacConfig{}, rng);
  const std::vector<std::pair<const char*, rl::Controller*>> methods = {
      {"dqn", &dqn}, {"coma", &coma}, {"maddpg", &maddpg}, {"maac", &maac}};
  for (const auto& [name, ctl] : methods) {
    for (const bool explore : {false, true}) {
      SCOPED_TRACE(std::string(name) + (explore ? " explore" : " greedy"));
      expect_rows_match_per_slot_act(*ctl, sc, explore);
    }
  }
}

// ------------------------------------------------- socket end-to-end ----

TEST(ServeSocket, HelloActReloadShutdown) {
  const std::string dir = make_checkpoint("ckpt_sock", core::HeroConfig{});
  auto scenario = sim::cooperative_lane_change(3);
  PolicyEngine engine(scenario, core::HeroConfig{}, dir);

  ServerConfig cfg;
  cfg.socket_path =
      (std::filesystem::path(::testing::TempDir()) / "ts.sock").string();
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait_us = 200;
  ServeServer server(engine, cfg);
  std::thread srv([&] { server.run(); });

  {
    ServeClient client(cfg.socket_path);
    sim::LaneWorld world(scenario.config);
    Rng rng(21);
    world.reset(rng);

    Hello hello;
    hello.learners = 3;
    hello.hl_dim = static_cast<std::uint32_t>(world.high_level_obs_dim());
    hello.ll_dim = static_cast<std::uint32_t>(world.low_level_obs_dim());
    hello.num_lanes = static_cast<std::uint32_t>(world.track().num_lanes());
    client.hello(hello);

    ActRequest req;
    std::vector<sim::TwistCmd> cmds(3);
    bool fresh = true;
    for (int tick = 0; tick < 10; ++tick) {
      fill_request_from_world(world, fresh, &req);
      req.request_id = static_cast<std::uint64_t>(tick) + 1;
      fresh = false;
      const ActResponse resp = client.act(req);
      EXPECT_EQ(resp.request_id, req.request_id);
      for (std::size_t k = 0; k < 3; ++k) {
        cmds[k].linear = resp.linear[k];
        cmds[k].angular = resp.angular[k];
      }
      world.step(cmds, rng);
      if (world.done()) {
        world.reset(rng);
        fresh = true;
      }
      if (tick == 4) {
        const ReloadAck ack = client.reload(dir);
        EXPECT_EQ(ack.ok, 1) << ack.message;
      }
    }

    // A dimension-mismatched Hello on a second connection is rejected with
    // a message naming the mismatch; the first session is unaffected.
    ServeClient bad(cfg.socket_path);
    Hello wrong = hello;
    wrong.hl_dim += 1;
    try {
      bad.hello(wrong);
      FAIL() << "mismatched Hello accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("mismatch"), std::string::npos);
    }

    fill_request_from_world(world, false, &req);
    req.request_id = 99;
    EXPECT_EQ(client.act(req).request_id, 99u);
    client.shutdown_server();
  }
  srv.join();
  EXPECT_EQ(server.responses_sent(), server.requests_received());
}

}  // namespace
}  // namespace hero::serve
