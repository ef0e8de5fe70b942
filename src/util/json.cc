#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstddef>

#include "util/units.h"

namespace cellsweep::util {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return descend(&Parser::parse_object);
      case '[': return descend(&Parser::parse_array);
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string_v = parse_string();
        return v;
      }
      case 't':
        if (consume_literal("true")) {
          JsonValue v;
          v.kind = JsonValue::Kind::kBool;
          v.bool_v = true;
          return v;
        }
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) {
          JsonValue v;
          v.kind = JsonValue::Kind::kBool;
          return v;
        }
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue{};
        fail("invalid literal");
      default: return parse_number();
    }
  }

  /// Recursion guard around the container parsers: parse depth is the
  /// C++ call-stack depth, so unbounded "[[[[..." input would otherwise
  /// overflow the stack instead of failing like any other bad input.
  JsonValue descend(JsonValue (Parser::*parse)()) {
    if (depth_ >= kMaxJsonDepth)
      fail("containers nested deeper than " + std::to_string(kMaxJsonDepth) +
           " levels");
    ++depth_;
    JsonValue v = (this->*parse)();
    --depth_;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object_v.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_v.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape");
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape digit");
    }
    // UTF-8 encode the BMP code point (surrogate pairs unsupported --
    // the emitters in this repo never produce them).
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, v.number_v);
    if (ec != std::errc() || ptr != last) {
      pos_ = start;
      fail("invalid number");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open containers (see descend)
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_v)
    if (k == key) return &v;
  return nullptr;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_string() ? v->string_v : std::move(fallback);
}

std::string json_number(double v) {
  return std::isfinite(v) ? cformat("%.17g", v) : "null";
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace cellsweep::util
