// Minimal recursive-descent JSON reader for the trajectory tooling, plus
// the two scalar formatters every JSON the repo writes shares (results
// records, diff reports, the mutation matrix).
//
// The repo's own Recorder writes the files this parses, but tp_bench_diff
// must also survive hand-edited input: parsing never throws, reports the
// byte offset of the first error, and bounds recursion depth. It accepts
// exactly RFC 8259 JSON (what Python's json module reads, less NaN and
// Infinity): numbers in the JSON grammar and finite as doubles, whitespace
// only space, tab, LF and CR, and no raw byte below 0x20 inside a string.
#ifndef TP_TRAJECTORY_JSON_HPP_
#define TP_TRAJECTORY_JSON_HPP_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tp::trajectory {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order
  // The value's bytes in the parsed text: [begin, end), surrounding
  // whitespace excluded. Readers that keep an element's exact text (the
  // results-file reader) cut it out with these.
  std::size_t begin = 0;
  std::size_t end = 0;

  bool is(Type t) const { return type == t; }
  // First member named `key`, or nullptr.
  const JsonValue* Find(std::string_view key) const;
};

// Parses one JSON document (surrounding whitespace allowed, nothing else).
// Returns nullopt and fills `error` ("offset N: ...") on malformed input.
std::optional<JsonValue> ParseJson(std::string_view text, std::string* error = nullptr);

// `s` as a JSON string literal, quotes included: '"' and '\\' escaped,
// newline and tab as \n and \t, other control bytes as \u00XX.
std::string JsonQuote(std::string_view s);

// `v` printed "%.6g", the precision of every number the repo records.
std::string JsonNumber(double v);

}  // namespace tp::trajectory

#endif  // TP_TRAJECTORY_JSON_HPP_
