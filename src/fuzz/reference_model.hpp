// Reference (array-of-structs) cache, TLB and branch-predictor models: the
// pre-SoA implementations — global 64-bit LRU clock, full-way linear
// scans — retained verbatim as differential oracles. The production
// structure-of-arrays rebuild over hw::WaySets must be
// observation-for-observation identical to these on any access stream
// (same hit/miss verdicts, same victims, same write-backs, same occupancy,
// same BranchResults). Shared by the cache-equivalence unit test
// (tests/hw/cache_equivalence_test.cpp, which also drives the BTB
// reference) and the tp_fuzz soa target, which drives the cache and TLB
// pairs over randomized geometries and op streams.
#ifndef TP_FUZZ_REFERENCE_MODEL_HPP_
#define TP_FUZZ_REFERENCE_MODEL_HPP_

#include <cstdint>
#include <vector>

#include "hw/branch_predictor.hpp"
#include "hw/cache.hpp"
#include "hw/tlb.hpp"
#include "hw/types.hpp"

namespace tp::fuzz {

class ReferenceCache {
 public:
  ReferenceCache(const hw::CacheGeometry& geometry, hw::Indexing indexing)
      : geometry_(geometry), indexing_(indexing) {
    sets_per_slice_ = geometry_.SetsPerSlice();
    lines_.resize(geometry_.TotalLines());
  }

  hw::AccessResult Access(hw::VAddr addr_for_index, hw::PAddr addr_for_tag, bool write);
  bool Insert(hw::VAddr addr_for_index, hw::PAddr addr_for_tag, bool dirty);
  bool Contains(hw::VAddr addr_for_index, hw::PAddr addr_for_tag) const;
  bool InvalidateLine(hw::VAddr addr_for_index, hw::PAddr addr_for_tag);
  bool InvalidateLineByPaddr(hw::PAddr paddr);
  std::size_t FlushAll();
  std::size_t InvalidateAll();
  std::size_t DirtyLineCount() const;
  std::size_t ValidLineCount() const;

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };

  static std::size_t SliceHash(std::uint64_t line_addr, std::size_t num_slices);

  std::uint64_t LineOf(hw::PAddr paddr) const { return paddr / geometry_.line_size; }
  std::size_t SetBase(hw::VAddr addr_for_index, hw::PAddr addr_for_tag) const;

  hw::CacheGeometry geometry_;
  hw::Indexing indexing_;
  std::size_t sets_per_slice_ = 1;
  std::vector<Line> lines_;
  std::uint64_t lru_clock_ = 0;
};

class ReferenceTlb {
 public:
  explicit ReferenceTlb(const hw::TlbGeometry& geometry) : geometry_(geometry) {
    entries_.resize(geometry_.entries);
    sets_ = geometry_.Sets();
  }

  bool Lookup(std::uint64_t vpn, hw::Asid asid);
  void Insert(std::uint64_t vpn, hw::Asid asid, bool global);
  void FlushAll();
  void FlushNonGlobal();
  void FlushAsid(hw::Asid asid);
  std::size_t ValidCount() const;

 private:
  struct Entry {
    std::uint64_t vpn = 0;
    std::uint64_t lru = 0;
    hw::Asid asid = 0;
    bool global = false;
    bool valid = false;
  };

  std::size_t SetBase(std::uint64_t vpn) const {
    return static_cast<std::size_t>(vpn % sets_) * geometry_.associativity;
  }

  hw::TlbGeometry geometry_;
  std::size_t sets_ = 1;
  std::vector<Entry> entries_;
  std::uint64_t lru_clock_ = 0;
};

// Gshare PHT plus an array-of-structs BTB with a global LRU clock (no
// taint metadata and no disable switch: neither changes a BranchResult).
class ReferenceBranchPredictor {
 public:
  explicit ReferenceBranchPredictor(const hw::BranchPredictorGeometry& geometry)
      : geometry_(geometry) {
    btb_.resize(geometry_.btb_entries);
    pht_.assign(geometry_.pht_entries, 1);  // weakly not-taken
  }

  hw::BranchResult Branch(hw::VAddr pc, hw::VAddr target, bool taken, bool conditional);
  void FlushBtb();
  void FlushHistory();
  std::size_t BtbValidCount() const;

 private:
  struct BtbEntry {
    std::uint64_t tag = 0;
    hw::VAddr target = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  std::size_t BtbSetBase(hw::VAddr pc) const;
  std::size_t PhtIndex(hw::VAddr pc) const;

  hw::BranchPredictorGeometry geometry_;
  std::vector<BtbEntry> btb_;
  std::vector<std::uint8_t> pht_;  // 2-bit saturating counters
  std::uint64_t ghr_ = 0;          // global history register
  std::uint64_t lru_clock_ = 0;
};

}  // namespace tp::fuzz

#endif  // TP_FUZZ_REFERENCE_MODEL_HPP_
