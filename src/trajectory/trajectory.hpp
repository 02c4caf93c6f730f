// The recorded bench trajectory: a typed view of BENCH_results.json.
//
// Loading is deliberately forgiving — the file is appended to by many
// processes and sometimes hand-edited. A record that is not an object,
// lacks the required identity fields (bench/label/cell), carries a wrong
// field type, or declares an unknown schema_version is *skipped* with a
// warning; only a file that is neither blank nor a JSON array is an
// error.
// Keys the record does not know are ignored, so records that carry retired
// fields (the early-stopping keys of older files) still load and diff.
#ifndef TP_TRAJECTORY_TRAJECTORY_HPP_
#define TP_TRAJECTORY_TRAJECTORY_HPP_

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tp::trajectory {

// The schema range this tooling understands (see BUILDING.md; RecordJson
// writes the current version). v1 records carry amortised wall_ns on
// cost-grid cells; v2 wall_ns is always a per-cell measurement; v3 adds
// the optional contract_* observables of taint-on runs. Every version
// loads into the same record type (absent contract fields stay at their
// "not recorded" defaults), so all versions diff against each other.
inline constexpr int kMinSchemaVersion = 1;
inline constexpr int kSchemaVersion = 3;

// One results record: what the Recorder writes (RecordJson) and what the
// loader reads back (ParseTrajectory). The field order lets callers build
// a record with designated initializers ({.cell, .rounds, .samples, ...});
// the Recorder stamps bench, label and the run context when it flushes.
struct TrajectoryRecord {
  int schema_version = kSchemaVersion;
  std::string bench;
  std::string label;
  std::string cell;
  std::size_t rounds = 0;
  std::size_t samples = 0;
  double mi_bits = std::numeric_limits<double>::quiet_NaN();
  double m0_bits = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t wall_ns = 0;
  std::size_t threads = 1;
  std::size_t shards = 1;
  std::map<std::string, double> metrics;
  // Contract-checker observables (v3); contract_clean -1 = not recorded
  // (pre-v3 file or taint tracking off), 0 = dirty, 1 = clean.
  int contract_clean = -1;
  std::uint64_t contract_switches = 0;
  std::uint64_t contract_violations = 0;
  std::uint64_t contract_whitelisted = 0;
  std::string contract_first;
  // Crash-isolation outcome (v3): "ok" (field absent in the file), or the
  // recorded "failed"/"timeout" status with its first error message.
  std::string cell_status = "ok";
  std::string cell_error;
  // Run context: TP_QUICK, host hardware concurrency, record time.
  bool quick = false;
  std::size_t host_cpus = 0;
  std::int64_t unix_time = 0;

  bool has_mi() const { return !std::isnan(mi_bits); }
  bool has_contract() const { return contract_clean >= 0; }
  bool cell_ok() const { return cell_status == "ok"; }
};

struct Trajectory {
  std::vector<TrajectoryRecord> records;
  std::vector<std::string> warnings;  // one per skipped/odd record

  // Distinct labels in first-appearance order.
  std::vector<std::string> Labels() const;
  bool HasLabel(std::string_view label) const;
};

// The record as one line of a results file, in the schema's field order:
// mi_bits/m0_bits only when set, metrics only when non-empty, contract_*
// only when has_contract(), and cell_status/cell_error only when
// !cell_ok().
std::string RecordJson(const TrajectoryRecord& r);

// One element of a results document, as the one reader (ReadResults)
// returns it: the element's exact bytes, and either its typed record or
// why the loader skips it.
struct ResultsElement {
  // Byte for byte as in the file, surrounding whitespace trimmed.
  std::string text;
  std::optional<TrajectoryRecord> record;  // nullopt when skipped
  std::string skipped;                     // "record N (bench/cell): why" when skipped
};

// The one reader of results files: parses the document once with ParseJson
// and returns its top-level array element by element. The loader, the
// Recorder's append and tp_bench's label check all read through it, so
// every writer refuses exactly what the loader refuses.
// Writers rebuild a file from the element texts, so records this build
// cannot type (an unknown schema_version, unknown fields, wrong field
// types, non-object elements) are kept byte for byte. A blank document
// (empty or whitespace only, as an absent file reads) holds no elements.
// Returns nullopt with `error` when the document is neither blank nor a
// JSON array: malformed JSON, an invalid element or trailing bytes.
std::optional<std::vector<ResultsElement>> ReadResults(std::string_view json_text,
                                                       std::string* error = nullptr);

// ReadResults, keeping the typed records and a warning per skipped one.
// Never throws.
std::optional<Trajectory> ParseTrajectory(std::string_view json_text,
                                          std::string* error = nullptr);

// ParseTrajectory over a file's contents; missing/unreadable file is an
// error.
std::optional<Trajectory> LoadTrajectory(const std::string& path, std::string* error = nullptr);

// Reassembles element texts into a results document, the one framing every
// writer emits: one record per line inside one array. ReadResults of a
// joined document gives back the same texts, so appending keeps the earlier
// records of a file this framing wrote as a byte prefix.
std::string JoinRecordTexts(const std::vector<std::string>& records);

// Read-edit-replace of a results file, the one way the Recorder's append
// updates one and tp_bench's label check reads one under its lock.
// Holds an exclusive flock on `<path>.lock` from the read to the rename,
// so concurrent writers serialise instead of renaming over each other's
// updates. `edit` gets the file's text (empty when the file does not
// exist) and may change it; changed text goes to a temp file in the same
// directory, is fsynced and renamed over `path`. An edit that returns
// false aborts with its message in `error` and leaves the file untouched.
// The edits read the text with ReadResults and write it with
// JoinRecordTexts; this function itself knows nothing of the format.
using ResultsEdit = std::function<bool(std::string& text, std::string* error)>;
bool EditResultsFile(const std::string& path, const ResultsEdit& edit, std::string* error);

}  // namespace tp::trajectory

#endif  // TP_TRAJECTORY_TRAJECTORY_HPP_
