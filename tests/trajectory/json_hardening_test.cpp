// Adversarial inputs for the strict JSON parser: overflowing exponents,
// pathological nesting, unterminated strings, truncated escapes, raw byte
// soup and near-JSON that Python's json module refuses must all come back
// as clean "offset N: why" errors — never a crash, never a non-finite
// number, never an unbounded recursion. tp_fuzz --target trajectory feeds
// the same parser randomized bytes; these are the fixed regression anchors.
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "trajectory/json.hpp"
#include "trajectory/trajectory.hpp"

namespace tp::trajectory {
namespace {

std::string ErrorFor(const std::string& text) {
  std::string error;
  EXPECT_FALSE(ParseJson(text, &error).has_value()) << text;
  return error;
}

TEST(JsonHardening, HugeExponentsAreRejectedNotInfinity) {
  EXPECT_NE(ErrorFor("1e99999").find("number out of range"), std::string::npos);
  EXPECT_NE(ErrorFor("-1e99999").find("number out of range"), std::string::npos);
  EXPECT_NE(ErrorFor("[1, 2, 1e400]").find("number out of range"), std::string::npos);

  // Large-but-finite stays accepted, and parses to a finite double.
  std::string error;
  const auto v = ParseJson("1e308", &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_TRUE(std::isfinite(v->number));
}

TEST(JsonHardening, HugeIntegerLiteralIsRejected) {
  EXPECT_NE(ErrorFor(std::string(400, '1')).find("number out of range"), std::string::npos);
}

TEST(JsonHardening, DeepNestingIsBoundedNotStackOverflow) {
  EXPECT_NE(ErrorFor(std::string(65, '[')).find("nesting too deep"), std::string::npos);
  EXPECT_NE(ErrorFor(std::string(1000, '[')).find("nesting too deep"), std::string::npos);

  // 60 levels (under the 64 bound) still parses.
  std::string deep;
  for (int i = 0; i < 60; ++i) {
    deep += "[";
  }
  deep += "1";
  for (int i = 0; i < 60; ++i) {
    deep += "]";
  }
  std::string error;
  EXPECT_TRUE(ParseJson(deep, &error).has_value()) << error;

  // Deep objects hit the same bound as deep arrays.
  std::string obj;
  for (int i = 0; i < 70; ++i) {
    obj += "{\"a\":";
  }
  EXPECT_NE(ErrorFor(obj).find("nesting too deep"), std::string::npos);
}

TEST(JsonHardening, UnterminatedStringsReportInBoundsOffsets) {
  for (const std::string& text :
       {std::string("\"abc"), std::string("{\"key"), std::string("\"esc\\")}) {
    std::string error;
    ASSERT_FALSE(ParseJson(text, &error).has_value()) << text;
    const auto off = std::stoull(error.substr(std::string("offset ").size()));
    EXPECT_LE(off, text.size()) << error;
    EXPECT_NE(error.find("unterminated string"), std::string::npos) << error;
  }
}

TEST(JsonHardening, TruncatedUnicodeEscapeIsAnError) {
  EXPECT_NE(ErrorFor("\"\\u12").find("escape"), std::string::npos);
  EXPECT_NE(ErrorFor("\"\\u12zz\"").find("escape"), std::string::npos);
}

TEST(JsonHardening, ByteSoupNeverCrashes) {
  // A spread of byte patterns that historically trip hand-rolled parsers;
  // every one must return an offset-tagged error or a value, not crash.
  const std::string inputs[] = {
      std::string("\x00\x01\x02", 3),
      "{{{{{{",
      "[,",
      "{\"a\"",
      "{\"a\":}",
      "[1,]",
      "nul",
      "truefalse",
      "--1",
      "1e",
      "1e+",
      ".5",
      "\xff\xfe\xfd",
      "\"\\",
      std::string(100, ','),
      "[\"\\u0000\"]",
  };
  for (const std::string& text : inputs) {
    std::string error;
    const auto v = ParseJson(text, &error);
    if (!v.has_value()) {
      EXPECT_EQ(error.compare(0, 7, "offset "), 0) << "input bytes: " << text;
    }
  }
}

TEST(JsonHardening, TrailingGarbageIsRejected) {
  EXPECT_NE(ErrorFor("{} extra").find("trailing"), std::string::npos);
  EXPECT_NE(ErrorFor("1 2").find("trailing"), std::string::npos);
}

// The one grammar of results files is RFC 8259 JSON, what perfbench's
// Python json.loads reads: a hand-edited results file Python refuses must
// not load into tp_bench_diff or a writer either.
TEST(JsonHardening, RefusesNearJsonThatPythonRefuses) {
  const std::string record = R"({"schema_version": 3, "bench": "b", "label": "l", "cell": "c")";
  std::vector<std::string> refused;
  for (const char* number : {"+1", "01", ".5", "1.", "-", "-01", "1e", "1.e5", "0x1"}) {
    refused.push_back("[" + record + ", \"wall_ns\": " + number + "}]");
  }
  refused.push_back("[\v" + record + "}]");  // \v is not JSON whitespace
  refused.push_back("\f[" + record + "}]");  // nor is \f
  refused.push_back("[" + record + ", \"cell_error\": \"a\tb\"}]");  // raw tab
  refused.push_back(std::string("[\"a\0b\"]", 7));
  for (const std::string& text : refused) {
    std::string error;
    EXPECT_FALSE(ParseJson(text, &error).has_value()) << text;
    EXPECT_EQ(error.compare(0, 7, "offset "), 0) << error;
    EXPECT_FALSE(ParseTrajectory(text).has_value()) << text;
  }

  // Every spelling the grammar allows still parses, to the same double.
  for (const auto& [text, value] : std::vector<std::pair<std::string, double>>{
           {"0", 0.0}, {"-0", 0.0}, {"7", 7.0}, {"-12", -12.0}, {"0.5", 0.5},
           {"1.25e3", 1250.0}, {"1E+2", 100.0}, {"2e-3", 0.002}, {"1e+06", 1e6}}) {
    const std::optional<JsonValue> v = ParseJson(" \t\n\r[" + text + "]\r\n");
    ASSERT_TRUE(v.has_value()) << text;
    EXPECT_EQ(v->array.at(0).number, value) << text;
  }
  const std::optional<JsonValue> escaped = ParseJson(R"(["a\tb"])");
  ASSERT_TRUE(escaped.has_value());
  EXPECT_EQ(escaped->array.at(0).string, "a\tb");
}

}  // namespace
}  // namespace tp::trajectory
