#include "hw/tlb.hpp"

#include <algorithm>
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
  full_mask_ = ways_ == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << ways_) - 1;

  vpns_.resize(geometry_.entries);
  asids_.resize(geometry_.entries);
  age_stride_ = LruStride(ways_);
  ages_.assign(sets_ * age_stride_, kLruPad);
  for (std::size_t set = 0; set < sets_; ++set) {
    for (std::size_t w = 0; w < ways_; ++w) {
      ages_[set * age_stride_ + w] = static_cast<std::uint8_t>(w);
    }
  }
  sigs_.assign(sets_ * age_stride_, 0);
  valid_.assign(sets_, 0);
  global_.assign(sets_, 0);

  if (TaintTrackingEnabled()) {
    taint_.Enable(geometry_.entries, 1);
  }
}

unsigned Tlb::PickVictim(std::size_t set) const {
  const std::uint64_t invalid = ~valid_[set] & full_mask_;
  if (invalid != 0) {
    // Highest-numbered invalid way, matching the previous scan order.
    return static_cast<unsigned>(std::bit_width(invalid) - 1);
  }
  return LruOldestWay(ages_.data() + set * age_stride_, age_stride_,
                      static_cast<std::uint8_t>(ways_ - 1));
}

void Tlb::Insert(std::uint64_t vpn, Asid asid, bool global) {
  const std::size_t set = SetOf(vpn);
  const std::size_t base = set * ways_;
  if (const int way = FindEntry(set, vpn, asid); way >= 0) {
    Promote(set, static_cast<unsigned>(way));
    if (taint_.on()) {
      taint_.Tag(base + static_cast<std::size_t>(way), taint_owner_, 0);
    }
    return;  // already present
  }
  const unsigned victim = PickVictim(set);
  const std::uint64_t bit = std::uint64_t{1} << victim;
  if ((valid_[set] & bit) == 0) {
    valid_[set] |= bit;
    ++valid_count_;
  }
  vpns_[base + victim] = vpn;
  asids_[base + victim] = asid;
  sigs_[set * age_stride_ + victim] = VpnSignature(vpn);
  if (global) {
    global_[set] |= bit;
  } else {
    global_[set] &= ~bit;
  }
  Promote(set, victim);
  if (taint_.on()) {
    taint_.Tag(base + victim, taint_owner_, 0);
  }
}

void Tlb::FlushAll() {
  std::fill(valid_.begin(), valid_.end(), 0);
  valid_count_ = 0;
  if (taint_.on()) {
    taint_.ClearAll();
  }
}

void Tlb::FlushNonGlobal() {
  std::size_t remaining = 0;
  for (std::size_t set = 0; set < sets_; ++set) {
    if (taint_.on()) {
      for (std::uint64_t m = valid_[set] & ~global_[set]; m != 0; m &= m - 1) {
        const unsigned way = static_cast<unsigned>(std::countr_zero(m));
        taint_.Clear(set * ways_ + way);
      }
    }
    valid_[set] &= global_[set];
    remaining += static_cast<std::size_t>(std::popcount(valid_[set]));
  }
  valid_count_ = remaining;
}

void Tlb::FlushAsid(Asid asid) {
  for (std::size_t set = 0; set < sets_; ++set) {
    const std::size_t base = set * ways_;
    for (std::uint64_t m = valid_[set] & ~global_[set]; m != 0; m &= m - 1) {
      const unsigned way = static_cast<unsigned>(std::countr_zero(m));
      if (asids_[base + way] == asid) {
        valid_[set] &= ~(std::uint64_t{1} << way);
        --valid_count_;
        if (taint_.on()) {
          taint_.Clear(base + way);
        }
      }
    }
  }
}

void Tlb::DigestState(std::uint64_t& h) const {
  DigestVec(h, vpns_);
  DigestVec(h, asids_);
  DigestVec(h, ages_);
  DigestVec(h, valid_);
  DigestVec(h, global_);
  taint_.DigestState(h);
}

}  // namespace tp::hw
