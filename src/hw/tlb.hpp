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
// vpn/asid arrays, packed per-set valid/global bitmasks, and per-entry
// 8-bit LRU age ranks reproducing the previous global-clock victim choice
// exactly. Lookup is the hot path and lives in the header so the core's
// translation fast path inlines it.
#ifndef TP_HW_TLB_HPP_
#define TP_HW_TLB_HPP_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/lru.hpp"
#include "hw/taint.hpp"
#include "hw/types.hpp"

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
    if (way >= 0) {
      Promote(set, static_cast<unsigned>(way));
      if (taint_.on()) {
        taint_.Tag(set * ways_ + static_cast<std::size_t>(way), taint_owner_, 0);
      }
      return true;
    }
    return false;
  }

  void Insert(std::uint64_t vpn, Asid asid, bool global);

  void FlushAll();          // e.g. Arm TLBIALL
  void FlushNonGlobal();    // e.g. x86 CR3 write without PCID
  void FlushAsid(Asid asid);  // e.g. invpcid single-context

  std::size_t ValidCount() const { return valid_count_; }
  const TlbGeometry& geometry() const { return geometry_; }
  const std::string& name() const { return name_; }

  // Folds the behavioural state into a batch-replay digest (see cache.hpp).
  void DigestState(std::uint64_t& h) const;

  // Taint metadata (active only when tracking was enabled at construction);
  // TLBs are uncolourable, so every entry uses colour 0. Entry index is
  // set * ways + way.
  void SetTaintOwner(TaintTag owner) { taint_owner_ = owner; }
  const TaintMap& taint() const { return taint_; }
  std::size_t ways() const { return ways_; }

 private:
  // Set selection, shift/mask when the set count is a power of two (every
  // real geometry), modulo otherwise.
  std::size_t SetOf(std::uint64_t vpn) const {
    return set_mask_ != 0 ? static_cast<std::size_t>(vpn & set_mask_)
                          : static_cast<std::size_t>(vpn % sets_);
  }

  // 8-bit vpn signature per way (age-stride array), giving the lookup a
  // whole-set SWAR compare; see SetAssociativeCache::TagSignature.
  static std::uint8_t VpnSignature(std::uint64_t vpn) {
    return static_cast<std::uint8_t>((vpn * 0x9E3779B97F4A7C15ull) >> 56);
  }

  // Way whose entry matches (vpn, asid), or -1. Signature candidates are
  // visited in ascending way order and confirmed against the valid mask,
  // the full vpn, and the global/ASID rule, so the first confirmed way
  // equals the previous linear scan's choice exactly (per-ASID duplicates
  // of one vpn included).
  int FindEntry(std::size_t set, std::uint64_t vpn, Asid asid) const {
    const std::uint64_t valid = valid_[set];
    if (valid == 0) {
      return -1;
    }
    const std::size_t base = set * ways_;
    const std::uint64_t glob = global_[set];
    const std::uint8_t* sigs = sigs_.data() + set * age_stride_;
    const std::uint64_t broadcast = kSwarLo * VpnSignature(vpn);
    for (std::size_t off = 0; off < age_stride_; off += 8) {
      std::uint64_t word;
      std::memcpy(&word, sigs + off, 8);
      std::uint64_t match = SwarByteMatch(word, broadcast);
      while (match != 0) {
        const unsigned way = static_cast<unsigned>(off) +
                             static_cast<unsigned>(std::countr_zero(match)) / 8;
        match &= match - 1;
        if (((valid >> way) & 1) != 0 && vpns_[base + way] == vpn &&
            (((glob >> way) & 1) != 0 || asids_[base + way] == asid)) {
          return static_cast<int>(way);
        }
      }
    }
    return -1;
  }

  // Exact-LRU promotion over the per-set age permutation (see lru.hpp).
  void Promote(std::size_t set, unsigned way) {
    LruPromote(ages_.data() + set * age_stride_, age_stride_, way);
  }

  unsigned PickVictim(std::size_t set) const;

  std::string name_;
  TlbGeometry geometry_;
  std::size_t sets_ = 1;
  std::size_t ways_ = 1;
  std::uint64_t set_mask_ = 0;
  std::uint64_t full_mask_ = 1;

  std::size_t age_stride_ = 8;        // per-set age/signature bytes, padded for SWAR
  std::vector<std::uint64_t> vpns_;   // [set][way] flattened
  std::vector<Asid> asids_;           // [set][way] flattened
  std::vector<std::uint8_t> ages_;    // LRU rank per entry, 0 = MRU
  std::vector<std::uint8_t> sigs_;    // VpnSignature per entry (stale until valid)
  std::vector<std::uint64_t> valid_;  // per-set way bitmask
  std::vector<std::uint64_t> global_;  // per-set way bitmask
  std::size_t valid_count_ = 0;

  TaintMap taint_;
  TaintTag taint_owner_ = 0;
};

}  // namespace tp::hw

#endif  // TP_HW_TLB_HPP_
