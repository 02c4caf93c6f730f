#include "trajectory/trajectory.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "trajectory/json.hpp"

namespace tp::trajectory {

namespace {

std::string Where(const TrajectoryRecord& r, std::size_t index) {
  std::string where = "record " + std::to_string(index);
  if (!r.bench.empty() || !r.cell.empty()) {
    where += " (" + r.bench + "/" + r.cell + ")";
  }
  return where;
}

// Reads `key` into `out` if present and numeric; false (with a warning
// recorded by the caller) on a type mismatch.
bool ReadNumber(const JsonValue& obj, std::string_view key, double* out, bool* type_error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    return false;
  }
  if (!v->is(JsonValue::Type::kNumber)) {
    *type_error = true;
    return false;
  }
  *out = v->number;
  return true;
}

bool ReadString(const JsonValue& obj, std::string_view key, std::string* out,
                bool* type_error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    return false;
  }
  if (!v->is(JsonValue::Type::kString)) {
    *type_error = true;
    return false;
  }
  *out = v->string;
  return true;
}

// One array element -> record in `r`; false (with `why`) when it must be
// skipped. The identity fields are read first, best-effort, so a skipped
// record's warning can still name the bench/cell it came from.
bool ParseRecord(const JsonValue& v, TrajectoryRecord& r, std::string* why) {
  if (!v.is(JsonValue::Type::kObject)) {
    *why = "not a JSON object";
    return false;
  }
  bool type_error = false;
  double num = 0.0;
  bool has_bench = ReadString(v, "bench", &r.bench, &type_error) && !r.bench.empty();
  bool has_cell = ReadString(v, "cell", &r.cell, &type_error) && !r.cell.empty();
  bool has_label = ReadString(v, "label", &r.label, &type_error);

  if (!ReadNumber(v, "schema_version", &num, &type_error)) {
    *why = "missing schema_version";
    return false;
  }
  r.schema_version = static_cast<int>(num);
  if (r.schema_version < kMinSchemaVersion || r.schema_version > kSchemaVersion) {
    *why = "unknown schema_version " + std::to_string(r.schema_version);
    return false;
  }
  if (!has_bench) {
    *why = "missing bench";
    return false;
  }
  if (!has_cell) {
    *why = "missing cell";
    return false;
  }
  if (!has_label) {
    *why = "missing label";
    return false;
  }

  if (const JsonValue* q = v.Find("quick"); q != nullptr && q->is(JsonValue::Type::kBool)) {
    r.quick = q->boolean;
  }
  auto read_size = [&](std::string_view key, std::size_t* out) {
    if (ReadNumber(v, key, &num, &type_error) && num >= 0) {
      *out = static_cast<std::size_t>(num);
    }
  };
  read_size("host_cpus", &r.host_cpus);
  read_size("threads", &r.threads);
  read_size("shards", &r.shards);
  read_size("rounds", &r.rounds);
  read_size("samples", &r.samples);
  // The gated observables must be finite: a NaN/Inf that slipped into the
  // file would sail through every threshold comparison and turn the gate
  // into a silent pass, so these are hard skips, not warnings-and-keep.
  if (ReadNumber(v, "mi_bits", &r.mi_bits, &type_error) && !std::isfinite(r.mi_bits)) {
    *why = "non-finite mi_bits";
    return false;
  }
  if (ReadNumber(v, "m0_bits", &r.m0_bits, &type_error) && !std::isfinite(r.m0_bits)) {
    *why = "non-finite m0_bits";
    return false;
  }
  if (ReadNumber(v, "wall_ns", &num, &type_error)) {
    if (!std::isfinite(num)) {
      *why = "non-finite wall_ns";
      return false;
    }
    if (num >= 0) {
      r.wall_ns = static_cast<std::uint64_t>(num);
    }
  }
  if (ReadNumber(v, "unix_time", &num, &type_error)) {
    r.unix_time = static_cast<std::int64_t>(num);
  }
  if (const JsonValue* m = v.Find("metrics"); m != nullptr) {
    if (!m->is(JsonValue::Type::kObject)) {
      type_error = true;
    } else {
      for (const auto& [key, value] : m->object) {
        if (value.is(JsonValue::Type::kNumber)) {
          r.metrics[key] = value.number;
        } else {
          type_error = true;
        }
      }
    }
  }
  if (const JsonValue* c = v.Find("contract_clean"); c != nullptr) {
    if (c->is(JsonValue::Type::kBool)) {
      r.contract_clean = c->boolean ? 1 : 0;
    } else {
      type_error = true;
    }
  }
  auto read_u64 = [&](std::string_view key, std::uint64_t* out) {
    if (ReadNumber(v, key, &num, &type_error) && num >= 0) {
      *out = static_cast<std::uint64_t>(num);
    }
  };
  read_u64("contract_switches", &r.contract_switches);
  read_u64("contract_violations", &r.contract_violations);
  read_u64("contract_whitelisted", &r.contract_whitelisted);
  ReadString(v, "contract_first", &r.contract_first, &type_error);
  ReadString(v, "cell_status", &r.cell_status, &type_error);
  if (r.cell_status.empty()) {
    r.cell_status = "ok";
  }
  ReadString(v, "cell_error", &r.cell_error, &type_error);
  if (type_error) {
    *why = "field with unexpected type";
    return false;
  }
  return true;
}

}  // namespace

std::string RecordJson(const TrajectoryRecord& r) {
  auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
  std::string out = "{\"schema_version\": " + std::to_string(r.schema_version);
  out += ", \"bench\": " + JsonQuote(r.bench);
  out += ", \"label\": " + JsonQuote(r.label);
  out += ", \"cell\": " + JsonQuote(r.cell);
  out += ", \"quick\": " + flag(r.quick);
  out += ", \"host_cpus\": " + std::to_string(r.host_cpus);
  out += ", \"threads\": " + std::to_string(r.threads);
  out += ", \"shards\": " + std::to_string(r.shards);
  out += ", \"rounds\": " + std::to_string(r.rounds);
  out += ", \"samples\": " + std::to_string(r.samples);
  if (r.has_mi()) {
    out += ", \"mi_bits\": " + JsonNumber(r.mi_bits);
  }
  if (!std::isnan(r.m0_bits)) {
    out += ", \"m0_bits\": " + JsonNumber(r.m0_bits);
  }
  out += ", \"wall_ns\": " + std::to_string(r.wall_ns);
  out += ", \"unix_time\": " + std::to_string(r.unix_time);
  if (!r.metrics.empty()) {
    const char* sep = ", \"metrics\": {";
    for (const auto& [key, value] : r.metrics) {
      out += sep + JsonQuote(key) + ": " + JsonNumber(value);
      sep = ", ";
    }
    out += "}";
  }
  if (r.has_contract()) {
    out += ", \"contract_clean\": " + flag(r.contract_clean != 0);
    out += ", \"contract_switches\": " + std::to_string(r.contract_switches);
    out += ", \"contract_violations\": " + std::to_string(r.contract_violations);
    out += ", \"contract_whitelisted\": " + std::to_string(r.contract_whitelisted);
    if (!r.contract_first.empty()) {
      out += ", \"contract_first\": " + JsonQuote(r.contract_first);
    }
  }
  if (!r.cell_ok()) {
    out += ", \"cell_status\": " + JsonQuote(r.cell_status);
    if (!r.cell_error.empty()) {
      out += ", \"cell_error\": " + JsonQuote(r.cell_error);
    }
  }
  out += "}";
  return out;
}

std::vector<std::string> Trajectory::Labels() const {
  std::vector<std::string> labels;
  for (const TrajectoryRecord& r : records) {
    bool seen = false;
    for (const std::string& l : labels) {
      seen = seen || l == r.label;
    }
    if (!seen) {
      labels.push_back(r.label);
    }
  }
  return labels;
}

bool Trajectory::HasLabel(std::string_view label) const {
  for (const TrajectoryRecord& r : records) {
    if (r.label == label) {
      return true;
    }
  }
  return false;
}

std::optional<std::vector<ResultsElement>> ReadResults(std::string_view json_text,
                                                       std::string* error) {
  // An absent or blank file holds no records.
  if (json_text.find_first_not_of(" \t\r\n") == std::string_view::npos) {
    return std::vector<ResultsElement>{};
  }
  std::string parse_error;
  std::optional<JsonValue> doc = ParseJson(json_text, &parse_error);
  if (!doc) {
    if (error != nullptr) {
      *error = "malformed JSON: " + parse_error;
    }
    return std::nullopt;
  }
  if (!doc->is(JsonValue::Type::kArray)) {
    if (error != nullptr) {
      *error = "top-level value is not a JSON array of records";
    }
    return std::nullopt;
  }
  std::vector<ResultsElement> elements(doc->array.size());
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const JsonValue& v = doc->array[i];
    ResultsElement& e = elements[i];
    e.text = json_text.substr(v.begin, v.end - v.begin);
    std::string why;
    TrajectoryRecord r;
    if (ParseRecord(v, r, &why)) {
      e.record = std::move(r);
    } else {
      e.skipped = Where(r, i) + ": " + why;
    }
  }
  return elements;
}

std::optional<Trajectory> ParseTrajectory(std::string_view json_text, std::string* error) {
  std::optional<std::vector<ResultsElement>> elements = ReadResults(json_text, error);
  if (!elements) {
    return std::nullopt;
  }
  Trajectory t;
  for (ResultsElement& e : *elements) {
    if (e.record) {
      t.records.push_back(std::move(*e.record));
    } else {
      t.warnings.push_back("skipped " + e.skipped);
    }
  }
  return t;
}

std::string JoinRecordTexts(const std::vector<std::string>& records) {
  std::string out = "[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += records[i];
  }
  out += "\n]\n";
  return out;
}

std::optional<Trajectory> LoadTrajectory(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::optional<Trajectory> t = ParseTrajectory(buf.str(), error);
  if (!t && error != nullptr) {
    *error = path + ": " + *error;
  }
  return t;
}

namespace {

// Writes `text` to a temp file beside `path`, fsyncs it and renames it
// over `path`: a crash at any point leaves the old file or the new one,
// never a torn write.
bool ReplaceFile(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return false;
  }
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n <= 0) {
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  bool ok = off == text.size() && ::fsync(fd) == 0;
  ::close(fd);
  ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    ::unlink(tmp.c_str());
  }
  return ok;
}

// An open lock file; closing it releases its flock on every exit from
// the holder's scope, a throwing edit included.
class LockFile {
 public:
  explicit LockFile(const std::string& path)
      : fd_(::open(path.c_str(), O_RDWR | O_CREAT, 0644)) {}
  LockFile(const LockFile&) = delete;
  LockFile& operator=(const LockFile&) = delete;
  ~LockFile() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool Lock() { return fd_ >= 0 && ::flock(fd_, LOCK_EX) == 0; }

 private:
  int fd_;
};

}  // namespace

bool EditResultsFile(const std::string& path, const ResultsEdit& edit, std::string* error) {
  // The data file is replaced by rename, so a lock on its own fd would not
  // survive the swap; writers serialise on a sidecar instead.
  LockFile lock(path + ".lock");
  if (!lock.Lock()) {
    *error = "cannot lock " + path + ".lock";
    return false;
  }
  std::string text;
  if (std::ifstream in(path, std::ios::binary); in) {
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  const std::string before = text;
  bool ok = edit(text, error);
  if (ok && text != before && !ReplaceFile(path, text)) {
    *error = "cannot write " + path;
    ok = false;
  }
  return ok;
}

}  // namespace tp::trajectory
