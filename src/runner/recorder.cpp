#include "runner/recorder.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <utility>

#include "runner/quick.hpp"

namespace tp::bench {

std::string ResultsPath() {
  const char* path = std::getenv("TP_BENCH_JSON");
  if (path == nullptr || std::string_view(path) == "0") {
    return "";
  }
  return path;
}

Recorder::Recorder(std::string bench) : bench_(std::move(bench)), path_(ResultsPath()) {
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
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const std::int64_t unix_time = std::chrono::duration_cast<std::chrono::seconds>(now).count();
  std::vector<std::string> texts;
  for (BenchRecord& r : pending_) {
    r.bench = bench_;
    r.label = label_;
    r.quick = QuickMode();
    r.host_cpus = std::thread::hardware_concurrency();
    r.unix_time = unix_time;
    texts.push_back(trajectory::RecordJson(r));
  }
  // The shared read-edit-replace holds the results file's lock from read
  // to rename, so concurrent sweeps and resumes never lose each other's
  // records.
  std::string error;
  if (!trajectory::EditResultsFile(
          path_,
          [&](std::string& text, std::string* why) {
            // An absent or blank file starts a fresh array. Any other file
            // the framing rejects (a truncated copy, say) stays as it is:
            // replacing it would throw away every record it still holds.
            std::vector<std::string> records;
            if (text.find_first_not_of(" \t\r\n") != std::string::npos) {
              auto existing = trajectory::SplitRecordTexts(text, why);
              if (!existing) {
                *why = path_ + ": " + *why + "; left untouched";
                return false;
              }
              records = std::move(*existing);
            }
            records.insert(records.end(), texts.begin(), texts.end());
            text = trajectory::JoinRecordTexts(records);
            return true;
          },
          &error)) {
    std::fprintf(stderr, "recorder: %s, %zu records not written\n", error.c_str(), pending_.size());
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
