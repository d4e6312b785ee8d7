// util/json.h reads input from outside the program (scenario files, and
// campaign journals — docs/CRASH_SAFETY.md), so it must be robust against
// adversarial and truncated input: every malformed document raises a clean
// JsonError — never UB, unbounded recursion, or an exception type the
// journal's torn-record handling does not expect.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/json.h"

namespace {

using avis::util::Json;
using avis::util::JsonError;
using avis::util::JsonLimits;

struct MalformedCase {
  const char* name;
  const char* input;
  const char* expected_error_substring;
};

// The malformed-input table: one row per distinct failure class. Each must
// throw JsonError carrying the expected diagnostic.
const MalformedCase kMalformed[] = {
    {"empty document", "", "unexpected end of input"},
    {"object cut at brace", "{", "unexpected end of input"},
    {"object cut after key", "{\"a\"", "unexpected end of input"},
    {"object cut after colon", "{\"a\":", "unexpected end of input"},
    {"array cut after comma", "[1,", "unexpected end of input"},
    {"object missing colon", "{\"a\" 1}", "expected ':'"},
    {"object single-quoted key", "{'a': 1}", "expected '\"'"},
    {"object trailing comma", "{\"a\": 1,}", "expected '\"'"},
    {"array missing comma", "[1 2]", "expected ']'"},
    {"unterminated string", "\"abc", "unterminated string"},
    {"unterminated escape", "\"ab\\", "unterminated escape"},
    {"truncated unicode escape", "\"\\u12", "truncated \\u escape"},
    {"bad unicode hex digit", "\"\\u12zx\"", "invalid hex digit"},
    {"surrogate escape", "\"\\ud800\"", "surrogate pairs are not supported"},
    {"invalid escape char", "\"\\q\"", "invalid escape character"},
    {"raw control char in string", "\"a\x01b\"", "unescaped control character"},
    {"mid-keyword EOF true", "tru", "invalid literal"},
    {"mid-keyword EOF null", "nul", "invalid literal"},
    {"misspelled keyword", "folse", "invalid literal"},
    {"trailing garbage", "false y", "trailing characters"},
    {"second document", "{} {}", "trailing characters"},
    {"leading zero", "01", "leading zero"},
    {"bare minus", "-", "invalid number"},
    {"plus-signed number", "+1", "invalid number"},
    {"dot without digits", "1.", "digits required after decimal point"},
    {"exponent without digits", "1e", "digits required in exponent"},
    {"exponent bare sign", "1e+", "digits required in exponent"},
};

TEST(JsonRobust, MalformedInputTable) {
  for (const MalformedCase& c : kMalformed) {
    SCOPED_TRACE(c.name);
    try {
      Json::parse(c.input);
      ADD_FAILURE() << "accepted malformed input: " << c.input;
    } catch (const JsonError& err) {
      EXPECT_NE(std::string(err.what()).find(c.expected_error_substring), std::string::npos)
          << "got: " << err.what();
    }
  }
}

// Every proper prefix of a valid document is a truncation a crash
// mid-write could leave behind; each must fail cleanly with a JsonError.
TEST(JsonRobust, EveryPrefixOfValidDocumentFailsCleanly) {
  const std::string doc =
      R"({"a": [1, -2.5e3, true, null, "x\u0041\n"], "b": {"c": false, "d": "\\"}})";
  ASSERT_NO_THROW(Json::parse(doc));
  for (std::size_t len = 0; len < doc.size(); ++len) {
    SCOPED_TRACE("prefix length " + std::to_string(len));
    EXPECT_THROW(Json::parse(doc.substr(0, len)), JsonError);
  }
}

TEST(JsonRobust, DepthLimitStopsDeepNesting) {
  // At the default limit: acceptable.
  const std::size_t default_depth = JsonLimits{}.max_depth;
  std::string at_limit(default_depth, '[');
  at_limit.append(default_depth, ']');
  EXPECT_NO_THROW(Json::parse(at_limit));

  // One past the limit: a clean error naming the ceiling.
  std::string past_limit(default_depth + 1, '[');
  past_limit.append(default_depth + 1, ']');
  try {
    Json::parse(past_limit);
    ADD_FAILURE() << "accepted nesting past the depth limit";
  } catch (const JsonError& err) {
    EXPECT_NE(std::string(err.what()).find("maximum depth"), std::string::npos) << err.what();
  }

  // Pathologically deep input must error out, not overflow the stack. An
  // unterminated 100k-bracket run previously recursed once per bracket.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), JsonError);
  EXPECT_THROW(Json::parse(std::string(100000, '{')), JsonError);
  std::string mixed;
  for (int i = 0; i < 50000; ++i) mixed += "[{\"k\":";
  EXPECT_THROW(Json::parse(mixed), JsonError);

  // Depth is released on the way out: many sibling containers at shallow
  // depth are fine.
  std::string siblings = "[";
  for (int i = 0; i < 1000; ++i) siblings += i ? ",[[]]" : "[[]]";
  siblings += "]";
  EXPECT_NO_THROW(Json::parse(siblings));

  // A tightened limit applies too.
  JsonLimits shallow;
  shallow.max_depth = 2;
  EXPECT_NO_THROW(Json::parse("[[1]]", shallow));
  EXPECT_THROW(Json::parse("[[[1]]]", shallow), JsonError);
}

TEST(JsonRobust, StringLengthLimit) {
  JsonLimits limits;
  limits.max_string_bytes = 8;
  EXPECT_EQ(Json::parse("\"12345678\"", limits).as_string(), "12345678");
  try {
    Json::parse("\"123456789\"", limits);
    ADD_FAILURE() << "accepted string past the length limit";
  } catch (const JsonError& err) {
    EXPECT_NE(std::string(err.what()).find("maximum length"), std::string::npos) << err.what();
  }
  // The limit counts decoded bytes, so escapes cannot smuggle extra length.
  EXPECT_THROW(Json::parse("\"1234567\\u0041\\u0042\"", limits), JsonError);
  // Default limit is roomy enough for real reports.
  EXPECT_NO_THROW(Json::parse("\"" + std::string(4096, 'x') + "\""));
}

TEST(JsonRobust, NumberTokenLengthLimit) {
  JsonLimits limits;
  limits.max_number_chars = 8;
  EXPECT_EQ(Json::parse("12345678", limits).as_int64(), 12345678);
  try {
    Json::parse("123456789", limits);
    ADD_FAILURE() << "accepted number token past the length limit";
  } catch (const JsonError& err) {
    EXPECT_NE(std::string(err.what()).find("number token"), std::string::npos) << err.what();
  }
  // A default-limits parse still takes a full uint64 seed.
  EXPECT_EQ(Json::parse("18446744073709551615").as_uint64(), 18446744073709551615ull);
}

// Structured errors keep flowing through the typed accessors (these guard
// the journal loader's error paths, which map JsonError to a torn or
// corrupt record).
TEST(JsonRobust, AccessorErrorsAreJsonErrors) {
  const Json doc = Json::parse(R"({"n": 1.5, "neg": -3, "s": "x"})");
  EXPECT_THROW(doc.at("n").as_int64(), JsonError);
  EXPECT_THROW(doc.at("neg").as_uint64(), JsonError);
  EXPECT_THROW(doc.at("s").as_int64(), JsonError);
  EXPECT_THROW(doc.at("missing"), JsonError);
  EXPECT_THROW(doc.as_array(), JsonError);
}

// util::parse_integer is the one integer rule for JSON number tokens and
// the campaign CLI's numeric flags: the whole string, an optional '-' then
// digits for a signed type, digits only for an unsigned one, no overflow.
TEST(JsonRobust, IntegerRuleIsWholeStringAndOverflowChecked) {
  using avis::util::parse_integer;
  EXPECT_EQ(parse_integer<std::int64_t>("-42"), -42);
  EXPECT_EQ(parse_integer<std::int64_t>("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(parse_integer<std::uint64_t>("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "-", " 5", "5 ", "+5", "0x10", "1.0", "1e3", "60s",
                          "9223372036854775808"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(parse_integer<std::int64_t>(bad).has_value());
  }
  for (const char* bad : {"-1", "-0", "+1", "18446744073709551616"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(parse_integer<std::uint64_t>(bad).has_value());
  }
}

// as_int narrows to its field's type and range and names the field and the
// value when it refuses, instead of wrapping through a cast.
TEST(JsonRobust, BoundedIntegerAccessorRefusesOutOfRange) {
  const Json doc = Json::parse(R"({"big": 4294967297, "mode": 65536, "neg": -1})");
  try {
    doc.at("big").as_int("max_set_size");
    ADD_FAILURE() << "4294967297 narrowed to int";
  } catch (const JsonError& err) {
    EXPECT_STREQ(err.what(),
                 "max_set_size must be an integer in [-2147483648, 2147483647] (got 4294967297)");
  }
  EXPECT_THROW(doc.at("mode").as_int<std::uint16_t>("mode id"), JsonError);
  EXPECT_THROW(doc.at("neg").as_int<std::size_t>("cells"), JsonError);
  EXPECT_THROW(doc.at("big").as_int("window", -1, 100), JsonError);
  EXPECT_EQ(doc.at("neg").as_int("window", -1, 100), -1);
  EXPECT_EQ(doc.at("mode").as_int<std::int64_t>(), 65536);
  EXPECT_EQ(doc.get_int("absent", std::uint64_t{7}), 7u);
}

}  // namespace
