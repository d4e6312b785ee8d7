// Minimal JSON reader for scenario files (docs/SCENARIOS.md).
//
// The campaign stack *emits* JSON by hand (core/campaign.cc,
// ScenarioSpec::to_json); this header is the other direction — parsing a
// scenario file back into a value tree. It is deliberately tiny: a strict
// recursive-descent parser over the full JSON grammar, a value type whose
// numbers keep their source token (so 64-bit seeds round-trip without going
// through a double), and typed accessors that fail with a JsonError naming
// the offending key. No external dependency, per the repo's no-new-deps
// rule.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace avis::util {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Hard ceilings applied while parsing. Scenario files and campaign journals
// (docs/CRASH_SAFETY.md) come from outside the program and may be damaged,
// written by a mismatched binary, or hostile: such a document must produce
// a JsonError, never unbounded recursion (stack overflow) or unbounded
// allocation. The defaults are far above anything a legitimate grid,
// report, or journal record produces.
struct JsonLimits {
  std::size_t max_depth = 64;                  // nested arrays/objects
  std::size_t max_string_bytes = 1 << 20;      // decoded bytes per string
  std::size_t max_number_chars = 128;          // characters per number token
};

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;  // insertion order preserved

  Json() = default;

  static Json parse(std::string_view text, const JsonLimits& limits = {});

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const {
    p_require(Kind::kBool, "bool");
    return bool_;
  }

  // Numbers keep their source token: integer accessors parse it exactly
  // (a 2^63-scale seed would lose bits through a double).
  double as_double() const {
    p_require(Kind::kNumber, "number");
    return std::strtod(scalar_.c_str(), nullptr);
  }

  std::int64_t as_int64() const {
    p_require(Kind::kNumber, "number");
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(scalar_.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') {
      throw JsonError("number is not a 64-bit integer: " + scalar_);
    }
    return v;
  }

  std::uint64_t as_uint64() const {
    p_require(Kind::kNumber, "number");
    if (!scalar_.empty() && scalar_[0] == '-') {
      throw JsonError("number is negative where an unsigned value is required: " + scalar_);
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(scalar_.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') {
      throw JsonError("number is not an unsigned 64-bit integer: " + scalar_);
    }
    return v;
  }

  const std::string& as_string() const {
    p_require(Kind::kString, "string");
    return scalar_;
  }

  const Array& as_array() const {
    p_require(Kind::kArray, "array");
    return array_;
  }

  const Object& as_object() const {
    p_require(Kind::kObject, "object");
    return object_;
  }

  // Object member lookup; nullptr when absent (or when not an object).
  const Json* find(std::string_view key) const {
    if (kind_ != Kind::kObject) return nullptr;
    for (const Member& member : object_) {
      if (member.first == key) return &member.second;
    }
    return nullptr;
  }

  const Json& at(std::string_view key) const {
    const Json* value = find(key);
    if (value == nullptr) throw JsonError("missing key: '" + std::string(key) + "'");
    return *value;
  }

  // --- Typed getters with defaults, for optional scenario keys ------------
  std::string get_string(std::string_view key, std::string fallback) const {
    const Json* v = find(key);
    return v != nullptr ? v->as_string() : std::move(fallback);
  }

  std::int64_t get_int64(std::string_view key, std::int64_t fallback) const {
    const Json* v = find(key);
    return v != nullptr ? v->as_int64() : fallback;
  }

  std::uint64_t get_uint64(std::string_view key, std::uint64_t fallback) const {
    const Json* v = find(key);
    return v != nullptr ? v->as_uint64() : fallback;
  }

  bool get_bool(std::string_view key, bool fallback) const {
    const Json* v = find(key);
    return v != nullptr ? v->as_bool() : fallback;
  }

  std::vector<std::string> get_string_array(std::string_view key,
                                            std::vector<std::string> fallback) const {
    const Json* v = find(key);
    if (v == nullptr) return fallback;
    std::vector<std::string> result;
    result.reserve(v->as_array().size());
    for (const Json& element : v->as_array()) result.push_back(element.as_string());
    return result;
  }

 private:
  void p_require(Kind kind, const char* name) const {
    if (kind_ != kind) throw JsonError(std::string("JSON value is not a ") + name);
  }

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string scalar_;  // string value, or the raw number token
  Array array_;
  Object object_;

  friend class JsonParser;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text, const JsonLimits& limits = {})
      : text_(text), limits_(limits) {}

  Json parse_document() {
    Json value = p_parse_value();
    p_skip_whitespace();
    if (pos_ != text_.size()) p_fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void p_fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw JsonError(message + " at line " + std::to_string(line) + ", column " +
                    std::to_string(column));
  }

  void p_skip_whitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char p_peek() {
    if (pos_ >= text_.size()) p_fail("unexpected end of input");
    return text_[pos_];
  }

  void p_expect(char c) {
    if (p_peek() != c) p_fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool p_consume_keyword(std::string_view keyword) {
    if (text_.substr(pos_, keyword.size()) != keyword) return false;
    pos_ += keyword.size();
    return true;
  }

  Json p_parse_value() {
    p_skip_whitespace();
    const char c = p_peek();
    switch (c) {
      case '{': return p_parse_object();
      case '[': return p_parse_array();
      case '"': {
        Json value;
        value.kind_ = Json::Kind::kString;
        value.scalar_ = p_parse_string();
        return value;
      }
      case 't':
        if (!p_consume_keyword("true")) p_fail("invalid literal");
        return p_make_bool(true);
      case 'f':
        if (!p_consume_keyword("false")) p_fail("invalid literal");
        return p_make_bool(false);
      case 'n':
        if (!p_consume_keyword("null")) p_fail("invalid literal");
        return Json{};
      default: return p_parse_number();
    }
  }

  static Json p_make_bool(bool value) {
    Json json;
    json.kind_ = Json::Kind::kBool;
    json.bool_ = value;
    return json;
  }

  // Containers are the only recursive productions, so the depth limit is
  // charged (and released) here; everything else parses in constant stack.
  void p_enter_container() {
    if (++depth_ > limits_.max_depth) {
      p_fail("nesting exceeds maximum depth of " + std::to_string(limits_.max_depth));
    }
  }

  Json p_parse_object() {
    p_expect('{');
    p_enter_container();
    Json value;
    value.kind_ = Json::Kind::kObject;
    p_skip_whitespace();
    if (p_peek() == '}') {
      ++pos_;
      --depth_;
      return value;
    }
    while (true) {
      p_skip_whitespace();
      std::string key = p_parse_string();
      p_skip_whitespace();
      p_expect(':');
      value.object_.emplace_back(std::move(key), p_parse_value());
      p_skip_whitespace();
      if (p_peek() == ',') {
        ++pos_;
        continue;
      }
      p_expect('}');
      --depth_;
      return value;
    }
  }

  Json p_parse_array() {
    p_expect('[');
    p_enter_container();
    Json value;
    value.kind_ = Json::Kind::kArray;
    p_skip_whitespace();
    if (p_peek() == ']') {
      ++pos_;
      --depth_;
      return value;
    }
    while (true) {
      value.array_.push_back(p_parse_value());
      p_skip_whitespace();
      if (p_peek() == ',') {
        ++pos_;
        continue;
      }
      p_expect(']');
      --depth_;
      return value;
    }
  }

  std::string p_parse_string() {
    p_expect('"');
    std::string result;
    while (true) {
      if (pos_ >= text_.size()) p_fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return result;
      if (result.size() >= limits_.max_string_bytes) {
        p_fail("string exceeds maximum length of " + std::to_string(limits_.max_string_bytes) +
               " bytes");
      }
      if (static_cast<unsigned char>(c) < 0x20) p_fail("unescaped control character in string");
      if (c != '\\') {
        result.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) p_fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': result.push_back('"'); break;
        case '\\': result.push_back('\\'); break;
        case '/': result.push_back('/'); break;
        case 'b': result.push_back('\b'); break;
        case 'f': result.push_back('\f'); break;
        case 'n': result.push_back('\n'); break;
        case 'r': result.push_back('\r'); break;
        case 't': result.push_back('\t'); break;
        case 'u': p_append_unicode_escape(result); break;
        default: p_fail("invalid escape character");
      }
    }
  }

  void p_append_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) p_fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else p_fail("invalid hex digit in \\u escape");
    }
    // UTF-8 encode the basic-plane code point (surrogate pairs are not
    // needed for registry names; reject them loudly instead of mangling).
    if (code >= 0xd800 && code <= 0xdfff) p_fail("surrogate pairs are not supported");
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xe0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
    }
  }

  // RFC 8259 number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  // Enforced strictly — "1.", "1e", "-.5" and leading zeros are errors, so
  // every document this parser accepts is also accepted by conforming
  // tools downstream (the spec is a wire format).
  Json p_parse_number() {
    const std::size_t start = pos_;
    auto digit_run = [&]() -> std::size_t {
      std::size_t count = 0;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++count;
      }
      return count;
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t int_start = pos_;
    if (digit_run() == 0) p_fail("invalid number");
    if (text_[int_start] == '0' && pos_ - int_start > 1) p_fail("leading zero in number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digit_run() == 0) p_fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (digit_run() == 0) p_fail("digits required in exponent");
    }
    if (pos_ - start > limits_.max_number_chars) {
      p_fail("number token exceeds maximum length of " +
             std::to_string(limits_.max_number_chars) + " characters");
    }
    Json value;
    value.kind_ = Json::Kind::kNumber;
    value.scalar_ = std::string(text_.substr(start, pos_ - start));
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  JsonLimits limits_;
  std::size_t depth_ = 0;
};

inline Json Json::parse(std::string_view text, const JsonLimits& limits) {
  return JsonParser(text, limits).parse_document();
}

// Escape a string for embedding in emitted JSON (shared by the scenario
// writer and the campaign report).
inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace avis::util
