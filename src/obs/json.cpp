#include "obs/json.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace hero::obs {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::Object) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::get_number(const std::string& key, double def) const {
  const JsonValue* v = find(key);
  return v ? v->number_or(def) : def;
}

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& def) const {
  const JsonValue* v = find(key);
  return v ? v->string_or(def) : def;
}

namespace {

constexpr int kMaxDepth = 64;

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string* err;
  std::vector<std::string> keys;  // members being parsed, outermost first

  bool fail(const char* what) {
    if (err) {
      *err = what;
      *err += " at offset ";
      *err += std::to_string(pos);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        *err += i == 0 ? " in member " : ".";
        *err += keys[i];
      }
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool literal(const char* word, std::size_t len) {
    if (text.compare(pos, len, word) != 0) return fail("bad literal");
    pos += len;
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos;  // opening quote
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        if (pos + 1 >= text.size()) return fail("truncated escape");
        const char esc = text[pos + 1];
        pos += 2;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            pos += 4;
            // UTF-8 encode the BMP code point (surrogate pairs are passed
            // through as two 3-byte sequences — good enough for our ASCII
            // artifact files).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return fail("unknown escape");
        }
        continue;
      }
      out += c;
      ++pos;
    }
    return fail("unterminated string");
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == 'n') {
      out.type = JsonValue::Type::Null;
      return literal("null", 4);
    }
    if (c == 't') {
      out.type = JsonValue::Type::Bool;
      out.bool_v = true;
      return literal("true", 4);
    }
    if (c == 'f') {
      out.type = JsonValue::Type::Bool;
      out.bool_v = false;
      return literal("false", 5);
    }
    if (c == '"') {
      out.type = JsonValue::Type::String;
      return parse_string(out.str_v);
    }
    if (c == '{') {
      out.type = JsonValue::Type::Object;
      ++pos;
      skip_ws();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      while (true) {
        skip_ws();
        if (pos >= text.size() || text[pos] != '"') return fail("expected key");
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (pos >= text.size() || text[pos] != ':') return fail("expected ':'");
        ++pos;
        keys.push_back(std::move(key));
        JsonValue v;
        if (!parse_value(v, depth + 1)) return false;
        out.members.emplace_back(std::move(keys.back()), std::move(v));
        keys.pop_back();
        skip_ws();
        if (pos >= text.size()) return fail("unterminated object");
        if (text[pos] == ',') {
          ++pos;
          continue;
        }
        if (text[pos] == '}') {
          ++pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      out.type = JsonValue::Type::Array;
      ++pos;
      skip_ws();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      while (true) {
        JsonValue v;
        if (!parse_value(v, depth + 1)) return false;
        out.items.push_back(std::move(v));
        skip_ws();
        if (pos >= text.size()) return fail("unterminated array");
        if (text[pos] == ',') {
          ++pos;
          continue;
        }
        if (text[pos] == ']') {
          ++pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      const char* start = text.c_str() + pos;
      char* end = nullptr;
      out.type = JsonValue::Type::Number;
      out.num_v = std::strtod(start, &end);
      if (end == start) return fail("bad number");
      pos += static_cast<std::size_t>(end - start);
      return true;
    }
    return fail("unexpected character");
  }
};

}  // namespace

bool JsonValue::parse(const std::string& text, JsonValue& out,
                      std::string* err) {
  out = JsonValue();
  Parser p{text, 0, err, {}};
  if (!p.parse_value(out, 0)) return false;
  p.skip_ws();
  if (p.pos != text.size()) return p.fail("trailing garbage");
  return true;
}

bool is_int(double v) {
  return std::isfinite(v) && v == std::trunc(v) &&
         v >= static_cast<double>(std::numeric_limits<int>::min()) &&
         v <= static_cast<double>(std::numeric_limits<int>::max());
}

}  // namespace hero::obs
