// ServeServer: the transport layer of hero_serve (docs/SERVING.md).
//
// A single-threaded poll() event loop over a unix-domain stream socket —
// deliberately thread-free (the repo's threading lives in src/runtime; one
// core runs the whole serving stack, which also makes served answers
// trivially deterministic). Concurrency comes from the protocol instead:
// N clients multiplex onto the loop, their requests queue in the
// MicroBatcher, and each scheduling tick answers a whole batch through one
// fused PolicyEngine pass.
//
// Request lifecycle:
//   readable fd → FrameReader → decoded ActRequest → micro-batch queue
//   (deadline = arrival + max_wait_us) → flush tick → PolicyEngine
//   act_batch → responses encoded into per-connection write buffers →
//   writable fd drains them.
//
// Admin frames ride the same connections: Reload flushes the pending batch
// (requests that arrived before the reload are answered by the old model),
// swaps the checkpoint via PolicyEngine::reload — in-flight sessions
// continue under the new weights, nothing is dropped — and acks. Shutdown
// answers everything still queued, drains the write buffers, and returns
// from run().
//
// Observability (when --metrics-out is set): serve.latency_us /
// serve.batch_size / serve.queue_depth histograms plus request/response/
// connection/reload counters — perfbench's traced serve_fleet32 run reads
// its serve.* layer metrics from these.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/batcher.h"
#include "serve/policy_engine.h"
#include "serve/protocol.h"

namespace hero::serve {

struct ServerConfig {
  std::string socket_path;
  BatcherConfig batcher;
  std::size_t max_clients = 64;
};

class ServeServer {
 public:
  // Binds and listens (unlinking a stale socket file first); throws
  // std::runtime_error on socket errors.
  ServeServer(PolicyEngine& engine, const ServerConfig& cfg);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  // Serves until a Shutdown frame arrives.
  void run();

  long responses_sent() const { return responses_sent_; }
  long requests_received() const { return requests_received_; }

 private:
  struct Conn {
    int fd = -1;
    std::uint32_t id = 0;
    FrameReader reader;
    std::vector<std::uint8_t> out;  // encoded frames awaiting the socket
    std::size_t out_off = 0;
    bool has_session = false;
    std::uint32_t session = 0;
    bool close_after_flush = false;  // terminal error sent; close once drained
  };

  struct PendingReq {
    std::uint32_t conn_id;
    ActRequest req;
    long long arrival_us;
  };

  void accept_clients();
  // Reads whatever the socket has and processes complete frames. Returns
  // false when the connection died.
  bool service_readable(Conn& c);
  void handle_frame(Conn& c, MsgType type, const std::vector<std::uint8_t>& payload);
  // Answers up to max_batch queued requests through one fused pass.
  void flush_batch();
  // Flushes until the request queue is empty (reload/shutdown barriers).
  void flush_all();
  // Returns the request's vectors to req_pool_ and removes the map entry.
  void recycle_pending(std::map<std::uint64_t, PendingReq>::iterator it);
  bool drain_writes(Conn& c);  // false when the connection died
  void close_conn(std::uint32_t id);
  void send_error(Conn& c, const std::string& message);

  PolicyEngine& engine_;
  ServerConfig cfg_;
  int listen_fd_ = -1;
  std::map<std::uint32_t, std::unique_ptr<Conn>> conns_;
  std::uint32_t next_conn_ = 1;

  MicroBatcher batcher_;  // tags are tickets into pending_
  std::map<std::uint64_t, PendingReq> pending_;
  // Retired ActRequests, recycled so their feature vectors keep their
  // capacity: steady-state request handling does no heap allocation beyond
  // the map node.
  std::vector<ActRequest> req_pool_;
  std::uint64_t next_ticket_ = 1;
  bool shutting_down_ = false;

  long requests_received_ = 0;
  long responses_sent_ = 0;

  // flush_batch scratch.
  std::vector<std::uint64_t> tickets_;
  std::vector<std::uint32_t> batch_sessions_;
  std::vector<const ActRequest*> batch_requests_;
  std::vector<std::map<std::uint64_t, PendingReq>::iterator> batch_its_;
  std::vector<ActResponse> batch_responses_;
  std::vector<std::uint32_t> touched_conns_;
  std::vector<std::uint8_t> read_buf_;
};

}  // namespace hero::serve
