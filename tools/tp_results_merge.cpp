// Merges the records of one results file into another, atomically.
//
//   tp_results_merge SRC DEST
//
// Every record of SRC is appended to DEST byte-for-byte (via
// trajectory::SplitRecordTexts, so records with fields this build does not
// understand survive untouched). The merge refuses to run when any label in
// SRC already exists in DEST — duplicate (bench, label, cell) records would
// make the trajectory differ silently prefer one of them — and DEST is
// replaced under the Recorder's lock via fsynced temp file + rename
// (trajectory::EditResultsFile), so a crash mid-merge can never leave a
// truncated file and a concurrent sweep never loses records.
// run_bench_sweep.sh records each sweep into a private temp file and merges
// it here only after every channel passed, so a failed sweep can never
// poison the committed results file.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "trajectory/trajectory.hpp"

namespace {

constexpr const char* kUsage =
    "usage: tp_results_merge SRC DEST\n"
    "\n"
    "Appends every record of results file SRC to results file DEST\n"
    "(created if missing). Fails without touching DEST when a label in SRC\n"
    "is already present in DEST. The rewrite is atomic (temp file +\n"
    "rename).\n";

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n%s", argv[i], kUsage);
      return 2;
    }
    paths.emplace_back(argv[i]);
  }
  if (paths.size() != 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string& src_path = paths[0];
  const std::string& dest_path = paths[1];

  std::optional<std::string> src_text = ReadFile(src_path);
  if (!src_text) {
    std::fprintf(stderr, "tp_results_merge: cannot read %s\n", src_path.c_str());
    return 1;
  }
  std::string error;
  std::optional<std::vector<std::string>> src_records =
      tp::trajectory::SplitRecordTexts(*src_text, &error);
  if (!src_records) {
    std::fprintf(stderr, "tp_results_merge: %s: %s\n", src_path.c_str(), error.c_str());
    return 1;
  }
  std::optional<tp::trajectory::Trajectory> src =
      tp::trajectory::ParseTrajectory(*src_text, &error);
  if (!src) {
    std::fprintf(stderr, "tp_results_merge: %s: %s\n", src_path.c_str(), error.c_str());
    return 1;
  }

  // DEST is read, checked and replaced under its lock, so a Recorder
  // flushing into it meanwhile can neither lose its records nor ours.
  const bool merged = tp::trajectory::EditResultsFile(
      dest_path,
      [&](std::string& dest_text, std::string* error) {
        std::vector<std::string> records;
        if (!dest_text.empty()) {
          std::optional<std::vector<std::string>> dest_records =
              tp::trajectory::SplitRecordTexts(dest_text, error);
          std::optional<tp::trajectory::Trajectory> dest =
              dest_records ? tp::trajectory::ParseTrajectory(dest_text, error) : std::nullopt;
          if (!dest) {
            return false;
          }
          for (const std::string& label : src->Labels()) {
            if (dest->HasLabel(label)) {
              *error = "label '" + label +
                       "' already present — pick a fresh label or remove the old records";
              return false;
            }
          }
          records = std::move(*dest_records);
        }
        records.insert(records.end(), src_records->begin(), src_records->end());
        dest_text = tp::trajectory::JoinRecordTexts(records);
        return true;
      },
      &error);
  if (!merged) {
    std::fprintf(stderr, "tp_results_merge: %s: %s\n", dest_path.c_str(), error.c_str());
    return 1;
  }
  std::printf("tp_results_merge: %zu record(s) from %s merged into %s\n",
              src_records->size(), src_path.c_str(), dest_path.c_str());
  return 0;
}
