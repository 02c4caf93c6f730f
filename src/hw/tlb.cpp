#include "hw/tlb.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "hw/digest.hpp"

namespace tp::hw {

std::string TlbGeometry::Validate() const {
  // One bit per way in the packed valid/global masks (see cache.cpp).
  if (associativity < 1 || associativity > 64) {
    return "associativity must be 1..64";
  }
  if (entries == 0 || entries % associativity != 0) {
    return "entries must be a nonzero multiple of associativity";
  }
  return "";
}

Tlb::Tlb(std::string name, const TlbGeometry& geometry)
    : name_(std::move(name)), geometry_(geometry) {
  if (std::string err = geometry_.Validate(); !err.empty()) {
    throw std::invalid_argument("Tlb " + name_ + ": " + err);
  }
  sets_ = geometry_.Sets();
  ways_ = geometry_.associativity;
  if (sets_ > 0 && std::has_single_bit(sets_)) {
    set_mask_ = sets_ - 1;
  }

  vpns_.resize(geometry_.entries);
  asids_.resize(geometry_.entries);
  global_.assign(sets_, 0);
  way_sets_ = WaySets(sets_, ways_, 1);  // TLBs are uncolourable
}

void Tlb::Insert(std::uint64_t vpn, Asid asid, bool global) {
  if (Lookup(vpn, asid)) {
    return;  // already present
  }
  const std::size_t set = SetOf(vpn);
  const unsigned victim = way_sets_.Victim(set);
  way_sets_.Fill(set, victim, WaySets::Signature(vpn));
  vpns_[set * ways_ + victim] = vpn;
  asids_[set * ways_ + victim] = asid;
  const std::uint64_t bit = std::uint64_t{1} << victim;
  if (global) {
    global_[set] |= bit;
  } else {
    global_[set] &= ~bit;
  }
  way_sets_.Stamp(set, victim, taint_owner_, 0);
}

void Tlb::FlushAll() { way_sets_.InvalidateAll(); }

void Tlb::FlushNonGlobal() {
  for (std::size_t set = 0; set < sets_; ++set) {
    way_sets_.Retain(set, global_[set]);
  }
}

void Tlb::FlushAsid(Asid asid) {
  for (std::size_t set = 0; set < sets_; ++set) {
    for (std::uint64_t m = way_sets_.valid(set) & ~global_[set]; m != 0; m &= m - 1) {
      const unsigned way = static_cast<unsigned>(std::countr_zero(m));
      if (asids_[set * ways_ + way] == asid) {
        way_sets_.Invalidate(set, way);
      }
    }
  }
}

void Tlb::DigestState(std::uint64_t& h) const {
  DigestVec(h, vpns_);
  DigestVec(h, asids_);
  DigestVec(h, global_);
  way_sets_.DigestState(h);
}

}  // namespace tp::hw
