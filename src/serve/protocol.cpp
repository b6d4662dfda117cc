#include "serve/protocol.h"

#include <bit>
#include <cstring>
#include <type_traits>

namespace hero::serve {

namespace {

// --- little-endian primitive writers (append) ---

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

// Arrays go out in bulk: on a little-endian host the in-memory bytes are
// already the wire bytes, so one resize and one memcpy write the whole
// array. Elsewhere each element's bits are written low byte first.
template <class T>
void put_array(std::vector<std::uint8_t>& out, const std::vector<T>& v) {
  const std::size_t at = out.size();
  out.resize(at + v.size() * sizeof(T));
  std::uint8_t* dst = out.data() + at;
  if constexpr (std::endian::native == std::endian::little) {
    if (!v.empty()) std::memcpy(dst, v.data(), v.size() * sizeof(T));
  } else {
    using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
    for (const T x : v) {
      const Bits bits = std::bit_cast<Bits>(x);
      for (std::size_t b = 0; b < sizeof(T); ++b) {
        *dst++ = static_cast<std::uint8_t>(bits >> (8 * b));
      }
    }
  }
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// --- bounds-checked primitive readers ---

struct Cursor {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t off = 0;
  bool ok = true;

  bool take(std::size_t bytes) {
    if (!ok || n - off < bytes) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!take(1)) return 0;
    return p[off++];
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = static_cast<std::uint32_t>(p[off]) |
                      static_cast<std::uint32_t>(p[off + 1]) << 8 |
                      static_cast<std::uint32_t>(p[off + 2]) << 16 |
                      static_cast<std::uint32_t>(p[off + 3]) << 24;
    off += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[off + i]) << (8 * i);
    off += 8;
    return v;
  }
  // Reads `count` elements into `out`, after checking that all of them are
  // in bounds (so a short payload never resizes `out`).
  template <class T>
  void array(std::size_t count, std::vector<T>* out) {
    if (!ok || count > (n - off) / sizeof(T)) {
      ok = false;
      return;
    }
    out->resize(count);
    if constexpr (std::endian::native == std::endian::little) {
      if (count > 0) std::memcpy(out->data(), p + off, count * sizeof(T));
      off += count * sizeof(T);
    } else {
      using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
      for (T& x : *out) {
        Bits bits = 0;
        for (std::size_t b = 0; b < sizeof(T); ++b) {
          bits |= static_cast<Bits>(p[off++]) << (8 * b);
        }
        x = std::bit_cast<T>(bits);
      }
    }
  }
  bool string(std::string* out) {
    const std::uint32_t len = u32();
    if (!take(len)) return false;
    out->assign(reinterpret_cast<const char*>(p + off), len);
    off += len;
    return true;
  }
  // Decode succeeded iff every read was in bounds and the payload is spent.
  bool done() const { return ok && off == n; }
};

// Reserves the 4-byte length slot, returns its offset.
std::size_t begin_frame(std::vector<std::uint8_t>& out, MsgType type) {
  const std::size_t at = out.size();
  put_u32(out, 0);
  put_u8(out, static_cast<std::uint8_t>(type));
  return at;
}

void end_frame(std::vector<std::uint8_t>& out, std::size_t at) {
  const std::uint32_t len = static_cast<std::uint32_t>(out.size() - at - 4);
  out[at] = static_cast<std::uint8_t>(len);
  out[at + 1] = static_cast<std::uint8_t>(len >> 8);
  out[at + 2] = static_cast<std::uint8_t>(len >> 16);
  out[at + 3] = static_cast<std::uint8_t>(len >> 24);
}

}  // namespace

void encode_hello(const Hello& m, std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_frame(out, MsgType::kHello);
  put_u32(out, m.learners);
  put_u32(out, m.hl_dim);
  put_u32(out, m.ll_dim);
  put_u32(out, m.num_lanes);
  put_u8(out, m.explore);
  put_u64(out, m.seed);
  end_frame(out, at);
}

void encode_hello_ack(const HelloAck& m, std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_frame(out, MsgType::kHelloAck);
  put_u32(out, m.session_id);
  end_frame(out, at);
}

void encode_act(const ActRequest& m, std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_frame(out, MsgType::kAct);
  put_u64(out, m.request_id);
  put_u8(out, m.reset);
  put_array(out, m.y);
  put_array(out, m.heading);
  put_array(out, m.speed);
  put_array(out, m.lane);
  put_array(out, m.hl);
  put_array(out, m.ll);
  end_frame(out, at);
}

void encode_act_response(const ActResponse& m, std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_frame(out, MsgType::kActResponse);
  put_u64(out, m.request_id);
  put_array(out, m.linear);
  put_array(out, m.angular);
  put_array(out, m.option);
  end_frame(out, at);
}

void encode_reload(const Reload& m, std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_frame(out, MsgType::kReload);
  put_string(out, m.dir);
  end_frame(out, at);
}

void encode_reload_ack(const ReloadAck& m, std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_frame(out, MsgType::kReloadAck);
  put_u8(out, m.ok);
  put_string(out, m.message);
  end_frame(out, at);
}

void encode_shutdown(std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_frame(out, MsgType::kShutdown);
  end_frame(out, at);
}

void encode_error(const ErrorMsg& m, std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_frame(out, MsgType::kError);
  put_string(out, m.message);
  end_frame(out, at);
}

bool decode_hello(const std::uint8_t* p, std::size_t n, Hello* out) {
  Cursor c{p, n};
  out->learners = c.u32();
  out->hl_dim = c.u32();
  out->ll_dim = c.u32();
  out->num_lanes = c.u32();
  out->explore = c.u8();
  out->seed = c.u64();
  return c.done();
}

bool decode_hello_ack(const std::uint8_t* p, std::size_t n, HelloAck* out) {
  Cursor c{p, n};
  out->session_id = c.u32();
  return c.done();
}

bool decode_act(const std::uint8_t* p, std::size_t n, std::uint32_t learners,
                std::uint32_t hl_dim, std::uint32_t ll_dim,
                std::uint32_t num_lanes, ActRequest* out) {
  Cursor c{p, n};
  out->request_id = c.u64();
  out->reset = c.u8();
  c.array(learners, &out->y);
  c.array(learners, &out->heading);
  c.array(learners, &out->speed);
  c.array(learners, &out->lane);
  c.array(static_cast<std::size_t>(learners) * hl_dim, &out->hl);
  c.array(static_cast<std::size_t>(learners) * num_lanes * ll_dim, &out->ll);
  return c.done();
}

bool decode_act_response(const std::uint8_t* p, std::size_t n,
                         std::uint32_t learners, ActResponse* out) {
  Cursor c{p, n};
  out->request_id = c.u64();
  c.array(learners, &out->linear);
  c.array(learners, &out->angular);
  c.array(learners, &out->option);
  return c.done();
}

bool decode_reload(const std::uint8_t* p, std::size_t n, Reload* out) {
  Cursor c{p, n};
  if (!c.string(&out->dir)) return false;
  return c.done();
}

bool decode_reload_ack(const std::uint8_t* p, std::size_t n, ReloadAck* out) {
  Cursor c{p, n};
  out->ok = c.u8();
  if (!c.string(&out->message)) return false;
  return c.done();
}

bool decode_error(const std::uint8_t* p, std::size_t n, ErrorMsg* out) {
  Cursor c{p, n};
  if (!c.string(&out->message)) return false;
  return c.done();
}

void FrameReader::feed(const std::uint8_t* data, std::size_t n) {
  if (bad_) return;
  // Compact the consumed prefix before growing (keeps the buffer bounded by
  // one partial frame plus whatever arrived in this chunk).
  if (off_ > 0 && off_ == buf_.size()) {
    buf_.clear();
    off_ = 0;
  } else if (off_ > kMaxFrameBytes) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

bool FrameReader::next(MsgType* type, std::vector<std::uint8_t>* payload) {
  if (bad_) return false;
  const std::size_t avail = buf_.size() - off_;
  if (avail < 5) return false;
  const std::uint8_t* p = buf_.data() + off_;
  const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                            static_cast<std::uint32_t>(p[1]) << 8 |
                            static_cast<std::uint32_t>(p[2]) << 16 |
                            static_cast<std::uint32_t>(p[3]) << 24;
  if (len == 0 || len > kMaxFrameBytes) {
    bad_ = true;
    return false;
  }
  if (avail < 4u + len) return false;
  *type = static_cast<MsgType>(p[4]);
  payload->assign(p + 5, p + 4 + len);
  off_ += 4u + len;
  return true;
}

}  // namespace hero::serve
