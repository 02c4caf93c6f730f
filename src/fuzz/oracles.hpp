// The invariant-oracle set behind tp_fuzz: RunCase executes one FuzzCase
// under its target's oracle and reports the first violated invariant;
// GenerateCase derives a randomized case deterministically from a seed.
//
// Targets and the invariants they check:
//   soa         — SoA cache/TLB vs the retained AoS reference models:
//                 per-op bit-equivalence (hit/fill/writeback/victim) and
//                 final occupancy over random geometries and op mixes, plus
//                 Validate()/constructor agreement on invalid geometries.
//   replay      — one program, three executions: batch replay on (default),
//                 TP_NO_REPLAY, and per-op dispatch must agree on cycles,
//                 every perf counter and StateDigest.
//   taint       — a randomized multi-domain time-shared system under a
//                 contract-honouring scenario must tally clean, and every
//                 TaintMap's incremental ForeignCount/FindForeign must match
//                 a brute-force walk of its entries.
//   threads     — SweepEngine over a synthetic channel: TP_THREADS=1 vs N
//                 must be bit-identical per cell (observations, MI, shard
//                 accounting).
//   trajectory  — the strict JSON parser: never crashes, reports sane
//                 "offset N:" errors, accepts exactly what an independent
//                 strict validator accepts, and successfully parsed
//                 documents survive a serialize/reparse round trip. The
//                 results reader accepts exactly the blank documents and
//                 the arrays, and an array's element spans are ordered,
//                 disjoint, reparse to their elements and survive
//                 JoinRecordTexts.
#ifndef TP_FUZZ_ORACLES_HPP_
#define TP_FUZZ_ORACLES_HPP_

#include <cstdint>
#include <string>

#include "fuzz/fuzz_case.hpp"

namespace tp::fuzz {

struct OracleResult {
  bool ok = true;       // invariants held (or the case was skipped)
  bool skipped = false;  // case rejected by validation before any oracle ran
  std::string message;   // first violated invariant when !ok

  static OracleResult Violation(std::string message) {
    OracleResult r;
    r.ok = false;
    r.message = std::move(message);
    return r;
  }
  static OracleResult Skipped() {
    OracleResult r;
    r.skipped = true;
    return r;
  }
};

// Executes `c` under its target's oracle set. Any unexpected exception is
// itself reported as a violation (reject-don't-crash is one of the
// invariants under test).
OracleResult RunCase(const FuzzCase& c);

// Deterministic case generation: the same (target, case_seed) always yields
// the same case, on any host.
FuzzCase GenerateCase(Target target, std::uint64_t case_seed);

}  // namespace tp::fuzz

#endif  // TP_FUZZ_ORACLES_HPP_
