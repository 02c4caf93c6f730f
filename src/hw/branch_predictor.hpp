// Branch predictor model: a branch target buffer (BTB) for indirect/direct
// target prediction plus a gshare-style direction predictor (global history
// register indexing a pattern history table of 2-bit counters) standing in
// for the branch history buffer (BHB) of the paper.
//
// Both structures are virtually indexed and untagged-by-domain, so they leak
// across domains unless explicitly flushed (x86 IBC / Arm BPIALL), which is
// Requirement 1 of the paper for the BP. The BTB is structure-of-arrays
// (tags and targets) over the shared hw::WaySets, like the caches and TLBs.
#ifndef TP_HW_BRANCH_PREDICTOR_HPP_
#define TP_HW_BRANCH_PREDICTOR_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "hw/taint.hpp"
#include "hw/types.hpp"
#include "hw/way_sets.hpp"

namespace tp::hw {

struct BranchPredictorGeometry {
  std::size_t btb_entries = 4096;
  std::size_t btb_associativity = 4;
  std::size_t pht_entries = 16384;  // pattern history table (BHB backing)
  std::size_t history_bits = 16;
  Cycles mispredict_penalty = 15;

  // "" when buildable, else the reason (the constructor throws
  // std::invalid_argument on the same bounds; see CacheGeometry::Validate).
  std::string Validate() const;
};

struct BranchResult {
  bool mispredicted = false;
  Cycles penalty = 0;
};

class BranchPredictor {
 public:
  explicit BranchPredictor(const BranchPredictorGeometry& geometry);

  // Conditional (or unconditional, with conditional=false) branch at `pc`
  // resolving to `target`, actually `taken`. Returns misprediction outcome
  // and updates BTB + history state.
  BranchResult Branch(VAddr pc, VAddr target, bool taken, bool conditional);

  // Architected flushes.
  void FlushBtb() { btb_.InvalidateAll(); }
  void FlushHistory();       // clear GHR + PHT (IBC-style barrier)
  void FlushAll() {
    FlushBtb();
    FlushHistory();
  }

  // Full disable: every branch costs the mispredict penalty (Arm full-flush
  // scenario in §5.2 disables the BP for the duration).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  std::size_t BtbValidCount() const { return btb_.valid_count(); }

  const BranchPredictorGeometry& geometry() const { return geometry_; }

  // Taint metadata (active only when tracking was enabled at construction).
  // BTB entries and PHT counters are tagged individually; the GHR is one
  // shared register with a single owner tag.
  void SetTaintOwner(TaintTag owner) { taint_owner_ = owner; }
  const TaintMap& btb_taint() const { return btb_.taint(); }
  const TaintMap& pht_taint() const { return pht_taint_; }
  TaintTag ghr_owner() const { return ghr_owner_; }
  std::size_t btb_associativity() const { return geometry_.btb_associativity; }

 private:
  std::size_t PhtIndex(VAddr pc) const;

  BranchPredictorGeometry geometry_;
  std::size_t btb_sets_ = 1;
  std::vector<std::uint64_t> btb_tags_;  // [set][way] flattened
  std::vector<VAddr> btb_targets_;       // [set][way] flattened
  WaySets btb_;
  std::vector<std::uint8_t> pht_;  // 2-bit saturating counters
  std::uint64_t ghr_ = 0;          // global history register
  bool enabled_ = true;

  TaintMap pht_taint_;
  TaintTag taint_owner_ = 0;
  TaintTag ghr_owner_ = 0;
};

}  // namespace tp::hw

#endif  // TP_HW_BRANCH_PREDICTOR_HPP_
