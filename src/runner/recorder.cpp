#include "runner/recorder.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <utility>

#include "runner/quick.hpp"
#include "trajectory/trajectory.hpp"

namespace tp::bench {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string RecordToJson(const std::string& bench, const std::string& label,
                         const BenchRecord& r) {
  std::ostringstream os;
  os << "{\"schema_version\": 3"
     << ", \"bench\": \"" << JsonEscape(bench) << "\""
     << ", \"label\": \"" << JsonEscape(label) << "\""
     << ", \"cell\": \"" << JsonEscape(r.cell) << "\""
     << ", \"quick\": " << (QuickMode() ? "true" : "false")
     << ", \"host_cpus\": " << std::thread::hardware_concurrency()
     << ", \"threads\": " << r.threads << ", \"shards\": " << r.shards
     << ", \"rounds\": " << r.rounds << ", \"samples\": " << r.samples;
  if (!std::isnan(r.mi_bits)) {
    os << ", \"mi_bits\": " << FormatDouble(r.mi_bits);
  }
  if (!std::isnan(r.m0_bits)) {
    os << ", \"m0_bits\": " << FormatDouble(r.m0_bits);
  }
  os << ", \"wall_ns\": " << r.wall_ns << ", \"unix_time\": "
     << std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
  if (!r.metrics.empty()) {
    os << ", \"metrics\": {";
    bool first = true;
    for (const auto& [key, value] : r.metrics) {
      if (!first) {
        os << ", ";
      }
      first = false;
      os << "\"" << JsonEscape(key) << "\": " << FormatDouble(value);
    }
    os << "}";
  }
  if (r.contract_clean >= 0) {
    os << ", \"contract_clean\": " << (r.contract_clean != 0 ? "true" : "false")
       << ", \"contract_switches\": " << r.contract_switches
       << ", \"contract_violations\": " << r.contract_violations
       << ", \"contract_whitelisted\": " << r.contract_whitelisted;
    if (!r.contract_first.empty()) {
      os << ", \"contract_first\": \"" << JsonEscape(r.contract_first) << "\"";
    }
  }
  if (!r.cell_status.empty()) {
    os << ", \"cell_status\": \"" << JsonEscape(r.cell_status) << "\"";
    if (!r.cell_error.empty()) {
      os << ", \"cell_error\": \"" << JsonEscape(r.cell_error) << "\"";
    }
  }
  if (r.adaptive) {
    os << ", \"rounds_run\": " << r.rounds_run
       << ", \"rounds_budget\": " << r.rounds_budget
       << ", \"stopped_early\": " << (r.stopped_early > 0 ? "true" : "false");
    if (!std::isnan(r.mi_ci_low)) {
      os << ", \"mi_ci_low\": " << FormatDouble(r.mi_ci_low);
    }
    if (!std::isnan(r.mi_ci_high)) {
      os << ", \"mi_ci_high\": " << FormatDouble(r.mi_ci_high);
    }
    if (r.significance > 0.0) {
      os << ", \"significance\": " << FormatDouble(r.significance);
    }
    if (!r.ci_method.empty()) {
      os << ", \"ci_method\": \"" << JsonEscape(r.ci_method) << "\"";
    }
  }
  os << "}";
  return os.str();
}

// `existing` with `records` appended inside its JSON array, spliced before
// the trailing ']'; a missing or malformed document restarts as a fresh
// array.
std::string AppendRecords(const std::string& existing, const std::string& bench,
                          const std::string& label, const std::vector<BenchRecord>& records) {
  std::size_t open_bracket = existing.find_first_of('[');
  std::size_t close = existing.find_last_of(']');
  std::string prefix;
  bool needs_comma = false;
  if (open_bracket != std::string::npos && close != std::string::npos && open_bracket < close) {
    prefix = existing.substr(0, close);
    // A comma is needed unless the array is empty so far.
    for (std::size_t i = open_bracket + 1; i < prefix.size(); ++i) {
      if (!std::isspace(static_cast<unsigned char>(prefix[i]))) {
        needs_comma = true;
        break;
      }
    }
    while (!prefix.empty() && std::isspace(static_cast<unsigned char>(prefix.back()))) {
      prefix.pop_back();
    }
  } else {
    prefix = "[";
  }

  std::string content = prefix;
  for (const BenchRecord& r : records) {
    content += needs_comma ? ",\n" : "\n";
    content += RecordToJson(bench, label, r);
    needs_comma = true;
  }
  content += "\n]\n";
  return content;
}

}  // namespace

Recorder::Recorder(std::string bench) : bench_(std::move(bench)) {
  if (const char* path = std::getenv("TP_BENCH_JSON");
      path != nullptr && path[0] != '\0' && !(path[0] == '0' && path[1] == '\0')) {
    path_ = path;
  }
  if (const char* label = std::getenv("TP_BENCH_LABEL"); label != nullptr) {
    label_ = label;
  }
  start_ns_ = NowNs();
}

Recorder::~Recorder() {
  if (enabled()) {
    BenchRecord total;
    total.cell = "total";
    total.wall_ns = NowNs() - start_ns_;
    // The whole-driver record reflects the run's actual fan-out, not the
    // BenchRecord defaults.
    for (const BenchRecord& r : pending_) {
      total.threads = std::max(total.threads, r.threads);
      total.shards = std::max(total.shards, r.shards);
    }
    Add(std::move(total));
    Flush();
  }
}

void Recorder::Add(BenchRecord record) {
  if (!enabled()) {
    return;
  }
  pending_.push_back(std::move(record));
}

void Recorder::Flush() {
  if (!enabled() || pending_.empty()) {
    return;
  }
  // The shared read-edit-replace holds the results file's lock from read
  // to rename, so concurrent sweeps, resumes and merges never lose each
  // other's records.
  std::string error;
  if (!trajectory::EditResultsFile(
          path_,
          [&](std::string& text, std::string*) {
            text = AppendRecords(text, bench_, label_, pending_);
            return true;
          },
          &error)) {
    std::fprintf(stderr, "recorder: %s\n", error.c_str());
  }
  pending_.clear();
}

std::uint64_t Recorder::NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace tp::bench
