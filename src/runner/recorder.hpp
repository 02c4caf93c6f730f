// Machine-readable benchmark recording.
//
// Every bench driver feeds a Recorder one BenchRecord per experiment cell;
// on Flush (or destruction) the records — plus one whole-process "total"
// record — are appended to the JSON array file named by the TP_BENCH_JSON
// environment variable (ResultsPath). With TP_BENCH_JSON unset (or "" /
// "0") recording is disabled and the benches print their tables exactly as
// before.
//
// The record type and its serialisation belong to the trajectory library
// (trajectory::TrajectoryRecord and trajectory::RecordJson); BUILDING.md
// "BENCH_results.json schema" documents the fields. The Recorder stamps
// bench, label, quick, host_cpus and unix_time on each record at flush.
//
// The file is written atomically through trajectory::EditResultsFile: the
// updated array goes to a temp file in the same directory which is then
// renamed over TP_BENCH_JSON, so a crash mid-write can never corrupt a
// committed trajectory. Concurrent sweeps and resumes serialise on its
// .lock sidecar. A file that is not a JSON array of records (a
// truncated copy, say) is left untouched and the flush's records are
// dropped with a message on stderr; an absent or empty file starts a
// fresh array.
#ifndef TP_RUNNER_RECORDER_HPP_
#define TP_RUNNER_RECORDER_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "trajectory/trajectory.hpp"

namespace tp::bench {

using BenchRecord = trajectory::TrajectoryRecord;

// The results file TP_BENCH_JSON names, or "" when recording is off (unset,
// "" or "0"). The Recorder and tp_bench's label check read it here alone.
std::string ResultsPath();

class Recorder {
 public:
  explicit Recorder(std::string bench);
  ~Recorder();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool enabled() const { return !path_.empty(); }

  void Add(BenchRecord record);

  // Appends pending records (closing with a "total" record on the first
  // flush from the destructor) into the JSON array at TP_BENCH_JSON,
  // creating the file if needed. No-op when disabled.
  void Flush();

  // Monotonic host wall-clock for wall_ns deltas.
  static std::uint64_t NowNs();

 private:
  std::string bench_;
  std::string label_;
  std::string path_;
  std::uint64_t start_ns_ = 0;
  std::vector<BenchRecord> pending_;
};

}  // namespace tp::bench

#endif  // TP_RUNNER_RECORDER_HPP_
