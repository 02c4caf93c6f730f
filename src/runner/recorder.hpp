// Machine-readable benchmark recording.
//
// Every bench driver feeds a Recorder one BenchRecord per experiment cell;
// on Flush (or destruction) the records — plus one whole-process "total"
// record — are appended to the JSON array file named by the TP_BENCH_JSON
// environment variable. With TP_BENCH_JSON unset (or "" / "0") recording is
// disabled and the benches print their tables exactly as before.
//
// File schema (documented in BUILDING.md): a JSON array of flat records,
//   { "schema_version": 3,
//     "bench": "fig3_kernel_channel",   driver name
//     "label": "pr2-optimized",         free-form run label (TP_BENCH_LABEL)
//     "cell": "haswell/raw",            experiment cell within the driver
//     "quick": true,                    TP_QUICK was set
//     "host_cpus": 8,                   host hardware concurrency
//     "threads": 4,                     host threads used
//     "shards": 8,                      shard count (1 = unsharded)
//     "rounds": 150,                    requested experiment rounds (0 = n/a)
//     "samples": 142,                   paired observations (0 = n/a)
//     "mi_bits": 0.79,                  leakage estimate (absent = n/a)
//     "m0_bits": 0.01,                  shuffled-baseline MI (absent = n/a)
//     "wall_ns": 123456789,             host wall-clock for the cell (v2:
//                                       measured per cell for cost grids
//                                       too, never amortised)
//     "unix_time": 1753400000,          record time, seconds since epoch
//     "metrics": {"clone_us": 79.0},    bench-specific extras (absent if none)
//     "contract_clean": true,           v3: all checked switches scrubbed
//     "contract_switches": 128,         v3: domain switches checked
//     "contract_violations": 0,         v3: foreign entries over dirty switches
//     "contract_whitelisted": 4,        v3: known-unfixable residue (§5.3.2)
//     "contract_first": "LLC ...",      v3: first violating access (if dirty)
//     "cell_status": "failed",          v3: "failed" (shard threw) or
//                                       "timeout" (per-cell watchdog); the
//                                       field is absent for healthy cells
//     "cell_error": "...",              v3: first error message (if failed)
//     "rounds_run": 48,                 v3 adaptive: executed rounds
//     "rounds_budget": 150,             v3 adaptive: budgeted rounds
//     "stopped_early": true,            v3 adaptive: sequential stop fired
//     "mi_ci_low": 0.0,                 v3 adaptive: CI lower bound (bits)
//     "mi_ci_high": 0.0004,             v3 adaptive: CI upper bound (bits)
//     "significance": 0.05,             v3 adaptive: configured CI level
//     "ci_method": "bootstrap" }        v3 adaptive: interval estimator
// The contract_* fields appear only when the cell ran with taint tracking
// enabled (TP_TAINT); v1/v2 readers must keep accepting their absence.
// cell_status/cell_error appear only on unhealthy cells, and the adaptive
// stopping fields only on cells swept with sequential stopping enabled
// (TP_ADAPTIVE / tp_bench --adaptive), so a clean fixed-rounds run's
// records are byte-compatible with earlier v3 writers.
//
// The file is written atomically through trajectory::EditResultsFile: the
// updated array goes to a temp file in the same directory which is then
// renamed over TP_BENCH_JSON, so a crash mid-write can never corrupt a
// committed trajectory. Concurrent sweeps, resumes and merges serialise on
// its .lock sidecar.
#ifndef TP_RUNNER_RECORDER_HPP_
#define TP_RUNNER_RECORDER_HPP_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace tp::bench {

struct BenchRecord {
  std::string cell;
  std::size_t rounds = 0;
  std::size_t samples = 0;
  double mi_bits = std::numeric_limits<double>::quiet_NaN();
  double m0_bits = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t wall_ns = 0;
  std::size_t threads = 1;
  std::size_t shards = 1;
  std::map<std::string, double> metrics;
  // Contract-checker observables; contract_clean stays -1 (fields not
  // emitted) when the cell ran without taint tracking.
  int contract_clean = -1;
  std::uint64_t contract_switches = 0;
  std::uint64_t contract_violations = 0;
  std::uint64_t contract_whitelisted = 0;
  std::string contract_first;
  // Crash-isolation outcome: "" (healthy, fields not emitted), "failed"
  // (a shard body threw) or "timeout" (per-cell watchdog tripped).
  std::string cell_status;
  std::string cell_error;
  // Adaptive sequential-stopping metadata (v3, emitted only when
  // `adaptive` — fixed-rounds records stay byte-identical to earlier
  // writers): executed vs budgeted rounds, the confidence interval on
  // mi_bits, the configured significance and the estimator that produced
  // the interval (always "bootstrap").
  bool adaptive = false;
  std::size_t rounds_run = 0;
  std::size_t rounds_budget = 0;
  int stopped_early = -1;
  double mi_ci_low = std::numeric_limits<double>::quiet_NaN();
  double mi_ci_high = std::numeric_limits<double>::quiet_NaN();
  double significance = 0.0;
  std::string ci_method;
};

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
