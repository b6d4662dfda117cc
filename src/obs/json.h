// Minimal JSON reader for the observability artifacts this repo writes
// (metrics snapshots, telemetry JSONL lines). Used by tools/hero_monitor
// and the run-health tests; deliberately small — no streaming, no SAX, no
// number formats beyond strtod. Object member order is preserved.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace hero::obs {

class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Object, Array };

  Type type = Type::Null;
  bool bool_v = false;
  double num_v = 0.0;
  std::string str_v;
  std::vector<std::pair<std::string, JsonValue>> members;  // Type::Object
  std::vector<JsonValue> items;                            // Type::Array

  bool is_null() const { return type == Type::Null; }
  bool is_object() const { return type == Type::Object; }
  bool is_array() const { return type == Type::Array; }
  bool is_number() const { return type == Type::Number; }
  bool is_string() const { return type == Type::String; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  double number_or(double def) const { return is_number() ? num_v : def; }
  std::string string_or(const std::string& def) const {
    return is_string() ? str_v : def;
  }
  bool bool_or(bool def) const { return type == Type::Bool ? bool_v : def; }

  // Convenience: member lookup + coercion in one step.
  double get_number(const std::string& key, double def) const;
  std::string get_string(const std::string& key, const std::string& def) const;

  // Parses one complete JSON document (trailing whitespace allowed, trailing
  // garbage rejected). Returns false on malformed input; `err`, when given,
  // receives a short description with the byte offset and the member it
  // happened in ("bad number at offset 80 in member learners").
  static bool parse(const std::string& text, JsonValue& out,
                    std::string* err = nullptr);
};

// True when `v` is finite, whole and within int range, so static_cast<int>
// is exact. JSON numbers are doubles: an unchecked cast truncates 2.5 and is
// undefined past INT_MAX. Every loader reads its integer fields through it.
bool is_int(double v);

}  // namespace hero::obs
