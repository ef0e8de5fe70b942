// Minimal JSON reader for the perf-regression harness.
//
// Parses the JSON this repo itself emits (metrics JSON, BENCH_*.json)
// into a value tree. Deliberately small: UTF-8 passthrough, \uXXXX
// escapes decoded, numbers via std::from_chars (locale-independent, so
// parsing is byte-stable like the emitters). Objects preserve key
// insertion order.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cellsweep::util {

/// Parse failure: message carries a byte offset and what was expected.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// Maximum container nesting the parser accepts. The parser (and the
/// JsonValue destructor) recurse once per nesting level, so without a
/// cap a client-supplied "[[[[..." overflows the stack; past this depth
/// parse_json throws a typed JsonError instead. Far above anything the
/// repo's own emitters produce (counter trees nest ~5 deep).
inline constexpr std::size_t kMaxJsonDepth = 128;

/// One JSON value. A tagged union kept simple (vectors stay empty for
/// scalar kinds); good enough for config-sized documents.
class JsonValue {
 public:
  enum class Kind : unsigned char {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool bool_v = false;
  double number_v = 0;
  std::string string_v;
  std::vector<JsonValue> array_v;
  /// Members in document order.
  std::vector<std::pair<std::string, JsonValue>> object_v;

  bool is_null() const noexcept { return kind == Kind::kNull; }
  bool is_object() const noexcept { return kind == Kind::kObject; }
  bool is_array() const noexcept { return kind == Kind::kArray; }
  bool is_number() const noexcept { return kind == Kind::kNumber; }
  bool is_string() const noexcept { return kind == Kind::kString; }

  /// Member @p key of an object; null for non-objects / absent keys.
  const JsonValue* find(std::string_view key) const;

  /// String value of member @p key, or @p fallback when absent or not a
  /// string.
  std::string string_or(std::string_view key, std::string fallback) const;
};

/// @p v as a JSON number: "%.17g", which round-trips a double exactly,
/// so identical values write identical bytes; "null" for NaN and the
/// infinities, which JSON has no literal for.
std::string json_number(double v);

/// Parses one JSON document (trailing whitespace allowed, nothing
/// else). Throws JsonError on malformed input or on containers nested
/// deeper than kMaxJsonDepth.
JsonValue parse_json(std::string_view text);

}  // namespace cellsweep::util
