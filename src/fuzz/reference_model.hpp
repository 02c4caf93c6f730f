// Reference (array-of-structs) cache and TLB models: the pre-SoA
// implementations — global 64-bit LRU clock, full-way linear scans —
// retained verbatim as differential oracles. The production
// structure-of-arrays rebuild must be observation-for-observation identical
// to these on any access stream (same hit/miss verdicts, same victims, same
// write-backs, same occupancy). Shared by the cache-equivalence unit test
// and the tp_fuzz soa target, which drives the pair over randomized
// geometries and op streams.
#ifndef TP_FUZZ_REFERENCE_MODEL_HPP_
#define TP_FUZZ_REFERENCE_MODEL_HPP_

#include <cstdint>
#include <vector>

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

}  // namespace tp::fuzz

#endif  // TP_FUZZ_REFERENCE_MODEL_HPP_
