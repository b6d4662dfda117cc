#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "obs/metrics.h"
#include "obs/phase.h"

namespace hero::serve {

namespace {

long long now_us_ll() { return static_cast<long long>(obs::now_us()); }

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void count(const char* name, long long delta = 1) {
  if (!obs::metrics_enabled()) return;
  obs::Registry::instance().counter(name).inc(delta);
}

void observe(const char* name, const obs::HistogramOptions& opts, double value) {
  if (!obs::metrics_enabled()) return;
  obs::Registry::instance().histogram(name, opts).observe(value);
}

const obs::HistogramOptions kLatencyHist{/*lo=*/1.0, /*hi=*/1e7, /*buckets=*/64,
                                         /*log_scale=*/true};
const obs::HistogramOptions kBatchHist{/*lo=*/0.0, /*hi=*/64.0, /*buckets=*/64,
                                       /*log_scale=*/false};
const obs::HistogramOptions kDepthHist{/*lo=*/0.0, /*hi=*/256.0, /*buckets=*/64,
                                       /*log_scale=*/false};

}  // namespace

ServeServer::ServeServer(PolicyEngine& engine, const ServerConfig& cfg)
    : engine_(engine), cfg_(cfg), batcher_(cfg.batcher) {
  if (cfg_.socket_path.empty() ||
      cfg_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw std::runtime_error("invalid serve socket path: \"" + cfg_.socket_path +
                             "\"");
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket(): ") + std::generic_category().message(errno));
  }
  ::unlink(cfg_.socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, cfg_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::generic_category().message(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind(" + cfg_.socket_path + "): " + err);
  }
  if (::listen(listen_fd_, 64) < 0) {
    const std::string err = std::generic_category().message(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("listen(" + cfg_.socket_path + "): " + err);
  }
  set_nonblocking(listen_fd_);
}

ServeServer::~ServeServer() {
  for (auto& [id, c] : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(cfg_.socket_path.c_str());
  }
}

void ServeServer::run() {
  std::vector<pollfd> fds;
  std::vector<std::uint32_t> fd_conn;  // fds[i+1] belongs to conn fd_conn[i]
  while (true) {
    if (batcher_.should_flush(now_us_ll())) flush_batch();
    if (shutting_down_) {
      flush_all();
      // Best-effort drain of every write buffer, then exit.
      for (auto& [id, c] : conns_) {
        while (c->out_off < c->out.size()) {
          pollfd pw{c->fd, POLLOUT, 0};
          if (::poll(&pw, 1, 1000) <= 0) break;
          if (!drain_writes(*c)) break;
        }
      }
      return;
    }

    fds.clear();
    fd_conn.clear();
    fds.push_back({listen_fd_,
                   conns_.size() < cfg_.max_clients ? static_cast<short>(POLLIN)
                                                    : static_cast<short>(0),
                   0});
    for (auto& [id, c] : conns_) {
      short events = POLLIN;
      if (c->out_off < c->out.size()) events |= POLLOUT;
      fds.push_back({c->fd, events, 0});
      fd_conn.push_back(id);
    }

    const long long budget = batcher_.wait_budget_us(now_us_ll());
    // µs → ms, rounding up so a deadline never fires early; -1 blocks.
    const int timeout_ms =
        budget < 0 ? -1 : static_cast<int>((budget + 999) / 1000);
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("poll(): ") + std::generic_category().message(errno));
    }

    if ((fds[0].revents & POLLIN) != 0) accept_clients();
    for (std::size_t i = 0; i < fd_conn.size(); ++i) {
      auto it = conns_.find(fd_conn[i]);
      if (it == conns_.end()) continue;  // closed earlier this round
      Conn& c = *it->second;
      const short re = fds[i + 1].revents;
      // POLLHUP often arrives together with the peer's final bytes — drain
      // POLLIN first so a frame sent right before close() is not lost.
      if ((re & POLLIN) != 0 && !service_readable(c)) {
        close_conn(c.id);
        continue;
      }
      if ((re & (POLLERR | POLLNVAL)) != 0 ||
          ((re & POLLHUP) != 0 && (re & POLLIN) == 0 &&
           c.out_off >= c.out.size())) {
        close_conn(c.id);
        continue;
      }
      if ((re & POLLOUT) != 0 && !drain_writes(c)) {
        close_conn(c.id);
        continue;
      }
      if (c.close_after_flush && c.out_off >= c.out.size()) close_conn(c.id);
    }
  }
}

void ServeServer::accept_clients() {
  while (conns_.size() < cfg_.max_clients) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: nothing more to accept
    set_nonblocking(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_++;
    count("serve.connections");
    conns_.emplace(conn->id, std::move(conn));
  }
}

bool ServeServer::service_readable(Conn& c) {
  read_buf_.resize(64 * 1024);
  while (true) {
    const ssize_t got = ::read(c.fd, read_buf_.data(), read_buf_.size());
    if (got > 0) {
      c.reader.feed(read_buf_.data(), static_cast<std::size_t>(got));
      if (static_cast<std::size_t>(got) < read_buf_.size()) break;
      continue;
    }
    if (got == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  MsgType type;
  std::vector<std::uint8_t> payload;
  while (c.reader.next(&type, &payload)) {
    handle_frame(c, type, payload);
    if (c.close_after_flush || shutting_down_) break;
  }
  if (c.reader.bad()) {
    count("serve.protocol_errors");
    send_error(c, "malformed frame (bad length prefix)");
  }
  return true;
}

void ServeServer::handle_frame(Conn& c, MsgType type,
                               const std::vector<std::uint8_t>& payload) {
  switch (type) {
    case MsgType::kHello: {
      Hello hello;
      if (!decode_hello(payload.data(), payload.size(), &hello)) {
        count("serve.protocol_errors");
        send_error(c, "malformed Hello");
        return;
      }
      if (c.has_session) {
        send_error(c, "Hello on a connection that already has a session");
        return;
      }
      const std::string mismatch = engine_.hello_mismatch(hello);
      if (!mismatch.empty()) {
        count("serve.hello_rejects");
        send_error(c, "model/client mismatch: " + mismatch);
        return;
      }
      c.session = engine_.open_session(hello.seed, hello.explore != 0);
      c.has_session = true;
      HelloAck ack;
      ack.session_id = c.session;
      encode_hello_ack(ack, c.out);
      drain_writes(c);
      return;
    }
    case MsgType::kAct: {
      if (!c.has_session) {
        send_error(c, "ActRequest before Hello");
        return;
      }
      const std::uint64_t ticket = next_ticket_++;
      PendingReq& p = pending_[ticket];
      p.conn_id = c.id;
      p.arrival_us = now_us_ll();
      if (!req_pool_.empty()) {
        // Recycled request: its vectors already have the right capacity, so
        // decode_act below resizes without touching the heap.
        p.req = std::move(req_pool_.back());
        req_pool_.pop_back();
      }
      if (!decode_act(payload.data(), payload.size(),
                      static_cast<std::uint32_t>(engine_.learners()),
                      static_cast<std::uint32_t>(engine_.hl_dim()),
                      static_cast<std::uint32_t>(engine_.ll_dim()),
                      static_cast<std::uint32_t>(engine_.num_lanes()), &p.req)) {
        recycle_pending(pending_.find(ticket));
        count("serve.protocol_errors");
        send_error(c, "malformed ActRequest");
        return;
      }
      ++requests_received_;
      count("serve.requests");
      batcher_.enqueue(ticket, p.arrival_us);
      observe("serve.queue_depth", kDepthHist,
              static_cast<double>(batcher_.pending()));
      return;
    }
    case MsgType::kReload: {
      Reload reload;
      if (!decode_reload(payload.data(), payload.size(), &reload)) {
        count("serve.protocol_errors");
        send_error(c, "malformed Reload");
        return;
      }
      // Answer everything that arrived before the reload with the old model,
      // then swap. In-flight sessions carry over untouched.
      flush_all();
      ReloadAck ack;
      try {
        engine_.reload(reload.dir);
        ack.ok = 1;
        ack.message = "reloaded " + reload.dir;
        count("serve.reloads");
      } catch (const std::exception& e) {
        ack.ok = 0;
        ack.message = e.what();
        count("serve.reload_failures");
      }
      encode_reload_ack(ack, c.out);
      drain_writes(c);
      return;
    }
    case MsgType::kShutdown:
      shutting_down_ = true;
      return;
    default:
      count("serve.protocol_errors");
      send_error(c, "unexpected frame type");
      return;
  }
}

void ServeServer::flush_batch() {
  batcher_.take(tickets_);
  if (tickets_.empty()) return;
  batch_sessions_.clear();
  batch_requests_.clear();
  batch_its_.clear();
  for (std::uint64_t t : tickets_) {
    auto it = pending_.find(t);
    if (it == pending_.end()) continue;
    auto conn = conns_.find(it->second.conn_id);
    if (conn == conns_.end()) {
      // Client vanished while queued; nothing to answer.
      recycle_pending(it);
      continue;
    }
    batch_sessions_.push_back(conn->second->session);
    batch_requests_.push_back(&it->second.req);
    batch_its_.push_back(it);
  }
  if (batch_requests_.empty()) return;

  engine_.act_batch(batch_sessions_, batch_requests_, &batch_responses_);
  observe("serve.batch_size", kBatchHist,
          static_cast<double>(batch_requests_.size()));
  count("serve.batches");

  const long long done_us = now_us_ll();
  touched_conns_.clear();
  for (std::size_t i = 0; i < batch_its_.size(); ++i) {
    const auto it = batch_its_[i];
    auto conn = conns_.find(it->second.conn_id);
    if (conn != conns_.end()) {
      encode_act_response(batch_responses_[i], conn->second->out);
      observe("serve.latency_us", kLatencyHist,
              static_cast<double>(done_us - it->second.arrival_us));
      ++responses_sent_;
      count("serve.responses");
      if (std::find(touched_conns_.begin(), touched_conns_.end(),
                    conn->first) == touched_conns_.end()) {
        touched_conns_.push_back(conn->first);
      }
    }
    recycle_pending(it);
  }
  // One drain per connection per batch: pipelined clients get all their
  // responses in a single write() instead of one syscall per response.
  for (std::uint32_t id : touched_conns_) {
    auto conn = conns_.find(id);
    if (conn != conns_.end()) drain_writes(*conn->second);
  }
}

void ServeServer::flush_all() {
  while (batcher_.pending() > 0) flush_batch();
}

void ServeServer::recycle_pending(std::map<std::uint64_t, PendingReq>::iterator it) {
  req_pool_.push_back(std::move(it->second.req));
  pending_.erase(it);
}

bool ServeServer::drain_writes(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t wrote =
        ::write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
    if (wrote > 0) {
      c.out_off += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (wrote < 0 && errno == EINTR) continue;
    return false;
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

void ServeServer::close_conn(std::uint32_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  if (it->second->has_session) engine_.close_session(it->second->session);
  if (it->second->fd >= 0) ::close(it->second->fd);
  conns_.erase(it);
}

void ServeServer::send_error(Conn& c, const std::string& message) {
  ErrorMsg err;
  err.message = message;
  encode_error(err, c.out);
  c.close_after_flush = true;
  drain_writes(c);
}

}  // namespace hero::serve
