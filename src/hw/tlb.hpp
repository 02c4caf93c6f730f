// TLB model: set-associative translation cache with ASID tags and global
// mappings.
//
// Global entries match regardless of the current ASID and survive
// FlushNonGlobal(); the baseline (single-image) kernel maps its window
// global, while clone-capable kernels cannot (each kernel image has its own
// mapping). On a low-associativity L2 TLB this difference is exactly the
// Arm IPC slowdown of paper Table 5.
//
// Like SetAssociativeCache, storage is structure-of-arrays: contiguous
// vpn/asid arrays and packed per-set global bitmasks, with valid masks,
// signatures, exact-LRU ranks and taint stamps in the shared hw::WaySets.
// Lookup is the hot path and lives in the header so the core's translation
// fast path inlines it.
#ifndef TP_HW_TLB_HPP_
#define TP_HW_TLB_HPP_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/taint.hpp"
#include "hw/types.hpp"
#include "hw/way_sets.hpp"

namespace tp::hw {

struct TlbGeometry {
  std::size_t entries = 0;
  std::size_t associativity = 1;
  std::size_t Sets() const { return entries / associativity; }
  // "" when buildable, else the reason (the constructor throws
  // std::invalid_argument on the same bounds; see CacheGeometry::Validate).
  std::string Validate() const;
};

class Tlb {
 public:
  Tlb(std::string name, const TlbGeometry& geometry);

  // True on hit for (vpn, asid): an entry matches if its vpn equals and it
  // is either global or tagged with `asid`.
  bool Lookup(std::uint64_t vpn, Asid asid) {
    const std::size_t set = SetOf(vpn);
    const int way = FindEntry(set, vpn, asid);
    if (way < 0) {
      return false;
    }
    way_sets_.Touch(set, static_cast<unsigned>(way));
    way_sets_.Stamp(set, static_cast<unsigned>(way), taint_owner_, 0);
    return true;
  }

  void Insert(std::uint64_t vpn, Asid asid, bool global);

  void FlushAll();          // e.g. Arm TLBIALL
  void FlushNonGlobal();    // e.g. x86 CR3 write without PCID
  void FlushAsid(Asid asid);  // e.g. invpcid single-context

  std::size_t ValidCount() const { return way_sets_.valid_count(); }
  const TlbGeometry& geometry() const { return geometry_; }
  const std::string& name() const { return name_; }

  // Folds the behavioural state into a batch-replay digest (see cache.hpp).
  void DigestState(std::uint64_t& h) const;

  // Taint metadata (active only when tracking was enabled at construction);
  // TLBs are uncolourable, so every entry uses colour 0. Entry index is
  // set * ways + way.
  void SetTaintOwner(TaintTag owner) { taint_owner_ = owner; }
  const TaintMap& taint() const { return way_sets_.taint(); }
  std::size_t ways() const { return ways_; }

 private:
  // Set selection, shift/mask when the set count is a power of two (every
  // real geometry), modulo otherwise.
  std::size_t SetOf(std::uint64_t vpn) const {
    return set_mask_ != 0 ? static_cast<std::size_t>(vpn & set_mask_)
                          : static_cast<std::size_t>(vpn % sets_);
  }

  // Way whose entry matches (vpn, asid), or -1: the vpn equals and the
  // entry is global or tagged with `asid`. The first match in ascending way
  // order, as a linear scan would find it (per-ASID duplicates of one vpn
  // included).
  int FindEntry(std::size_t set, std::uint64_t vpn, Asid asid) const {
    const std::size_t base = set * ways_;
    const std::uint64_t glob = global_[set];
    return way_sets_.Find(set, WaySets::Signature(vpn), [&](unsigned way) {
      return vpns_[base + way] == vpn && (((glob >> way) & 1) != 0 || asids_[base + way] == asid);
    });
  }

  std::string name_;
  TlbGeometry geometry_;
  std::size_t sets_ = 1;
  std::size_t ways_ = 1;
  std::uint64_t set_mask_ = 0;

  std::vector<std::uint64_t> vpns_;    // [set][way] flattened
  std::vector<Asid> asids_;            // [set][way] flattened
  std::vector<std::uint64_t> global_;  // per-set way bitmask
  WaySets way_sets_;

  TaintTag taint_owner_ = 0;
};

}  // namespace tp::hw

#endif  // TP_HW_TLB_HPP_
