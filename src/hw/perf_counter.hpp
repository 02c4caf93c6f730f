// Per-core performance-monitoring counters, the receiver-side observable of
// several attacks in the paper (e.g. Fig. 3 counts LLC misses). They are the
// simulator's only event counts: caches, TLBs and the branch predictor keep
// no tallies of their own.
#ifndef TP_HW_PERF_COUNTER_HPP_
#define TP_HW_PERF_COUNTER_HPP_

#include <cstdint>

namespace tp::hw {

struct PerfCounters {
  std::uint64_t l1d_misses = 0;
  std::uint64_t l1i_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t tlb_misses = 0;  // first-level (I/D) TLB misses, L2 TLB hits included
  std::uint64_t page_walks = 0;  // L2 TLB misses
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t fetches = 0;
};

}  // namespace tp::hw

#endif  // TP_HW_PERF_COUNTER_HPP_
