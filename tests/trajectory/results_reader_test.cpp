// The one results-file reader behind the loader, the Recorder's append and
// tp_bench's label check: JSON value byte ranges, element
// texts kept byte for byte, per-element typing, and the documents every
// writer must refuse because the loader does.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "trajectory/json.hpp"
#include "trajectory/trajectory.hpp"

namespace tp::trajectory {
namespace {

// Each value knows its bytes in the text, surrounding whitespace
// excluded: the results reader cuts element texts out with these.
TEST(Json, ReportsEachValuesByteRange) {
  const std::string text = R"( [ {"k": "a]\"b"} ,-1.5e2,
  [true, null] ] )";
  std::optional<JsonValue> v = ParseJson(text);
  ASSERT_TRUE(v.has_value());
  auto span = [&](const JsonValue& value) {
    return text.substr(value.begin, value.end - value.begin);
  };
  EXPECT_EQ(span(*v), text.substr(1, text.size() - 2));
  ASSERT_EQ(v->array.size(), 3u);
  EXPECT_EQ(span(v->array[0]), R"({"k": "a]\"b"})");
  EXPECT_EQ(span(*v->array[0].Find("k")), R"("a]\"b")");
  EXPECT_EQ(span(v->array[1]), "-1.5e2");
  EXPECT_EQ(span(v->array[2]), "[true, null]");
  EXPECT_EQ(span(v->array[2].array[1]), "null");
}

std::vector<std::string> Texts(const std::vector<ResultsElement>& elements) {
  std::vector<std::string> texts;
  for (const ResultsElement& e : elements) {
    texts.push_back(e.text);
  }
  return texts;
}

TEST(ResultsReader, KeepsElementTextsByteForByte) {
  // Includes a record this build cannot type (future fields, nested
  // structures, "]" and escaped quotes inside strings): an append must
  // carry it through untouched.
  const std::string rec1 =
      R"({"schema_version": 1, "bench": "b", "label": "l", "cell": "c", "mi_bits": 0.25})";
  const std::string rec2 =
      R"({"future_field": {"nested": [1, {"deep": "a ] \" , b"}]}, "x": "y"})";
  const std::string doc = "[\n" + rec1 + ",\n" + rec2 + "\n]\n";
  std::string error;
  std::optional<std::vector<ResultsElement>> elements = ReadResults(doc, &error);
  ASSERT_TRUE(elements.has_value()) << error;
  EXPECT_EQ(Texts(*elements), (std::vector<std::string>{rec1, rec2}));

  // A file the framing wrote is its own join, and join -> read is the
  // identity on the element texts.
  EXPECT_EQ(JoinRecordTexts(Texts(*elements)), doc);
  std::optional<std::vector<ResultsElement>> again =
      ReadResults(JoinRecordTexts(Texts(*elements)), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(Texts(*again), Texts(*elements));

  // An empty array survives the round trip too.
  ASSERT_TRUE(ReadResults("[]").has_value());
  EXPECT_TRUE(ReadResults("[]")->empty());

  // Non-arrays and unbalanced documents are errors, not crashes.
  EXPECT_FALSE(ReadResults(R"({"not": "array"})", &error).has_value());
  EXPECT_FALSE(ReadResults("[{\"a\": 1}", &error).has_value());
  EXPECT_FALSE(ReadResults("[{\"a\": 1} {\"b\": 2}]", &error).has_value());
}

// Every writer reads through ReadResults, so a writer refuses exactly the
// files tp_bench_diff's loader refuses: balanced braces are not enough.
TEST(ResultsReader, RefusesWhatTheLoaderRefuses) {
  const char* const kRefused[] = {
      R"([{"a": 1,}])",
      R"([{"a": 1}, {"b": tru}])",
      R"([{"a": 1}] trailing)",
      R"([{"schema_version": 3, "bench": "x", "label": "old", "cell": "c", "quick": true,}])",
  };
  for (const char* doc : kRefused) {
    std::string error;
    EXPECT_FALSE(ReadResults(doc, &error).has_value()) << doc;
    EXPECT_NE(error.find("malformed JSON: offset"), std::string::npos) << doc << ": " << error;
    EXPECT_FALSE(ParseTrajectory(doc).has_value()) << doc;
  }
}

// Each element carries its typed record, or the loader's reason for
// skipping it; either way its text is kept.
TEST(ResultsReader, TypesEachElementOrSaysWhyItWasSkipped) {
  const std::string good =
      R"({"schema_version": 3, "bench": "b", "label": "l", "cell": "c", "mi_bits": 0.5})";
  const std::string future = R"({"schema_version": 99, "bench": "b", "label": "l", "cell": "c"})";
  const std::string wrong_type =
      R"({"schema_version": 3, "bench": "b", "label": "l", "cell": "c", "rounds": "many"})";
  const std::string scalar = "42";
  const std::string doc = "[" + good + ", " + future + ",\n\t" + wrong_type + " ," + scalar + "]";
  std::string error;
  std::optional<std::vector<ResultsElement>> elements = ReadResults(doc, &error);
  ASSERT_TRUE(elements.has_value()) << error;
  EXPECT_EQ(Texts(*elements), (std::vector<std::string>{good, future, wrong_type, scalar}));
  ASSERT_TRUE((*elements)[0].record.has_value());
  EXPECT_EQ((*elements)[0].record->mi_bits, 0.5);
  EXPECT_TRUE((*elements)[0].skipped.empty());
  EXPECT_FALSE((*elements)[1].record.has_value());
  EXPECT_EQ((*elements)[1].skipped, "record 1 (b/c): unknown schema_version 99");
  EXPECT_FALSE((*elements)[2].record.has_value());
  EXPECT_EQ((*elements)[2].skipped, "record 2 (b/c): field with unexpected type");
  EXPECT_FALSE((*elements)[3].record.has_value());
  EXPECT_EQ((*elements)[3].skipped, "record 3: not a JSON object");

  // The loader keeps the typed records and warns once per skipped one.
  std::optional<Trajectory> t = ParseTrajectory(doc);
  ASSERT_TRUE(t.has_value());
  ASSERT_EQ(t->records.size(), 1u);
  ASSERT_EQ(t->warnings.size(), 3u);
  EXPECT_EQ(t->warnings[0], "skipped record 1 (b/c): unknown schema_version 99");
}

// An absent file reads as empty text: it, and a blank one, hold no records.
TEST(ResultsReader, BlankDocumentHoldsNoElements) {
  for (const char* doc : {"", " \n\t\r\n"}) {
    std::optional<std::vector<ResultsElement>> elements = ReadResults(doc);
    ASSERT_TRUE(elements.has_value());
    EXPECT_TRUE(elements->empty());
    std::optional<Trajectory> t = ParseTrajectory(doc);
    ASSERT_TRUE(t.has_value());
    EXPECT_TRUE(t->records.empty());
  }
}

}  // namespace
}  // namespace tp::trajectory
