#include "nn/serialize.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace hero::nn {

void save_params(Mlp& net, std::ostream& os) {
  auto ps = net.params();
  os << "herockpt 1 " << ps.size() << "\n";
  os << std::setprecision(17);
  for (auto p : ps) {
    os << p.value->rows() << ' ' << p.value->cols() << '\n';
    for (std::size_t i = 0; i < p.value->size(); ++i) {
      os << p.value->data()[i] << (i + 1 == p.value->size() ? '\n' : ' ');
    }
  }
}

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::runtime_error("load_params: " + what);
}

[[noreturn]] void reject_token(const char* what, std::string_view token) {
  constexpr std::size_t kShown = 32;
  reject(std::string(what) + " '" + std::string(token.substr(0, kShown)) +
         (token.size() > kShown ? "...'" : "'"));
}

// The whitespace-separated tokens of a stream held in memory.
class Tokens {
 public:
  explicit Tokens(std::string_view text) : p_(text.data()), end_(p_ + text.size()) {}

  bool at_end() {
    skip_space();
    return p_ == end_;
  }
  // The next token; a missing one is a truncated stream.
  std::string_view next() {
    if (at_end()) reject("truncated stream");
    const char* start = p_;
    while (p_ != end_ && !is_space(*p_)) ++p_;
    return {start, static_cast<std::size_t>(p_ - start)};
  }

 private:
  static bool is_space(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  }
  void skip_space() {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

// The whole token as a number, or a named rejection. std::from_chars rounds
// correctly, as operator>> does, so the loaded bits are the written ones.
template <typename T>
T parse_number(std::string_view token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::result_out_of_range) reject_token("value out of range", token);
  if (ec != std::errc() || ptr != end) reject_token("malformed value", token);
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) reject_token("non-finite value", token);
  }
  return value;
}

// The one herockpt v1 parser: header, then per tensor its shape and values,
// then nothing but whitespace.
void parse_params(Mlp& net, std::string_view text) {
  Tokens in(text);
  if (in.at_end() || in.next() != "herockpt" || in.at_end() || in.next() != "1") {
    reject("not a herockpt v1 stream");
  }
  auto ps = net.params();
  if (parse_number<std::size_t>(in.next()) != ps.size()) {
    reject("parameter count mismatch");
  }
  for (auto p : ps) {
    const auto r = parse_number<std::size_t>(in.next());
    const auto c = parse_number<std::size_t>(in.next());
    if (r != p.value->rows() || c != p.value->cols()) reject("shape mismatch");
    double* data = p.value->data();
    for (std::size_t i = 0; i < p.value->size(); ++i) {
      data[i] = parse_number<double>(in.next());
    }
  }
  if (!in.at_end()) reject_token("trailing data", in.next());
}

std::string read_all(std::istream& is) {
  std::string out;
  char buf[1 << 16];
  while (is.read(buf, sizeof(buf)) || is.gcount() > 0) {
    out.append(buf, static_cast<std::size_t>(is.gcount()));
  }
  return out;
}

}  // namespace

void load_params(Mlp& net, std::istream& is) { parse_params(net, read_all(is)); }

void save_params_file(Mlp& net, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("save_params_file: cannot open " + path);
  save_params(net, f);
}

void load_params_file(Mlp& net, const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_params_file: cannot open " + path);
  load_params(net, f);
}

}  // namespace hero::nn
