// Per-way bookkeeping shared by every set-associative structure in the
// model: the caches, the TLBs and the BTB. A structure keeps only its
// payload (tags, vpns, targets, ...) and its set decode; WaySets owns the
// rest — per-set valid masks and the valid count, an 8-bit key signature
// per way, the exact-LRU rank per way and the per-way taint stamp.
//
// Signatures and ranks are stored one byte per way, padded to an 8-byte
// stride, so lookup and promotion run as SWAR word operations instead of
// per-byte loops. Ranks form a permutation of 0..ways-1 per set (0 = MRU);
// padding bytes hold 0xFF, which no comparison against a real rank (< 64)
// can match or increment. The update rule — every way younger than the
// touched one ages by a step, the touched way becomes MRU — reproduces the
// relative order of a global LRU clock exactly, so victim choice is
// bit-identical to the array-of-structs reference models
// (src/fuzz/reference_model.hpp).
#ifndef TP_HW_WAY_SETS_HPP_
#define TP_HW_WAY_SETS_HPP_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "hw/digest.hpp"
#include "hw/taint.hpp"

namespace tp::hw {

class WaySets {
 public:
  WaySets() = default;
  // `ways` must be 1..64 (one bit per way in the valid mask; the owners'
  // geometry Validate() enforces it). The taint map is enabled when
  // tracking is on, with `taint_colours` colours (see TaintMap::Enable).
  WaySets(std::size_t sets, std::size_t ways, std::size_t taint_colours)
      : ways_(ways),
        stride_((ways + 7) & ~std::size_t{7}),
        full_mask_(ways == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << ways) - 1),
        ranks_(sets * stride_, kPad),
        sigs_(sets * stride_, 0),
        valid_(sets, 0) {
    for (std::size_t set = 0; set < sets; ++set) {
      for (std::size_t w = 0; w < ways; ++w) {
        ranks_[set * stride_ + w] = static_cast<std::uint8_t>(w);
      }
    }
    if (TaintTrackingEnabled()) {
      taint_.Enable(sets * ways, taint_colours);
    }
  }

  // 8-bit signature of a key. A strong multiplicative mix: keys in one set
  // differ only above the index bits, which a truncated low byte would
  // mostly discard.
  static std::uint8_t Signature(std::uint64_t key) {
    return static_cast<std::uint8_t>((key * 0x9E3779B97F4A7C15ull) >> 56);
  }

  // First valid way, in ascending order, whose signature is `sig` and for
  // which `confirm(way)` holds; -1 if none. Visiting candidates in
  // ascending order makes the first confirmed way the one a way-0-first
  // linear scan would pick. Stale signatures (invalid ways) die at the
  // valid mask, and SWAR borrow artefacts at the confirm.
  template <typename Confirm>
  int Find(std::size_t set, std::uint8_t sig, Confirm confirm) const {
    const std::uint64_t valid = valid_[set];
    if (valid == 0) {
      return -1;
    }
    const std::uint8_t* sigs = sigs_.data() + set * stride_;
    const std::uint64_t broadcast = kLo * sig;
    for (std::size_t off = 0; off < stride_; off += 8) {
      std::uint64_t word;
      std::memcpy(&word, sigs + off, 8);
      // Bytes equal to `sig` come back with bit 7 set. Borrow propagation
      // can mark a rare extra byte (the classic haszero caveat), never miss
      // a real one.
      const std::uint64_t x = word ^ broadcast;
      std::uint64_t match = (x - kLo) & ~x & kHi;
      while (match != 0) {
        const unsigned way = static_cast<unsigned>(off) +
                             static_cast<unsigned>(std::countr_zero(match)) / 8;
        match &= match - 1;
        if (((valid >> way) & 1) != 0 && confirm(way)) {
          return static_cast<int>(way);
        }
      }
    }
    return -1;
  }

  // Makes `way` MRU: ranks strictly younger than its old rank gain a step.
  void Touch(std::size_t set, unsigned way) {
    std::uint8_t* ranks = ranks_.data() + set * stride_;
    const std::uint8_t old_rank = ranks[way];
    if (old_rank == 0) {
      return;
    }
    const std::uint64_t broadcast = kLo * old_rank;
    for (std::size_t off = 0; off < stride_; off += 8) {
      std::uint64_t r;
      std::memcpy(&r, ranks + off, 8);
      // Per-byte r >= old_rank: bit 7 survives the subtraction (real ranks
      // and old_rank are < 0x80, padding is 0xFF and always "greater").
      const std::uint64_t ge = ((r | kHi) - broadcast) & kHi;
      r += (~ge & kHi) >> 7;  // +1 where r < old_rank
      std::memcpy(ranks + off, &r, 8);
    }
    ranks[way] = 0;
  }

  // The way a fill replaces: the highest-numbered invalid way when the set
  // has room, else the LRU way (the one holding rank ways-1).
  unsigned Victim(std::size_t set) const {
    const std::uint64_t invalid = ~valid_[set] & full_mask_;
    if (invalid != 0) {
      return static_cast<unsigned>(std::bit_width(invalid) - 1);
    }
    const std::uint8_t* ranks = ranks_.data() + set * stride_;
    const std::uint64_t broadcast = kLo * (ways_ - 1);
    for (std::size_t off = 0; off < stride_; off += 8) {
      std::uint64_t r;
      std::memcpy(&r, ranks + off, 8);
      const std::uint64_t x = r ^ broadcast;  // zero byte where rank == ways-1
      const std::uint64_t zero = (x - kLo) & ~x & kHi;
      if (zero != 0) {
        return static_cast<unsigned>(off) + static_cast<unsigned>(std::countr_zero(zero)) / 8;
      }
    }
    return 0;  // unreachable: the ranks are a permutation, so one byte matches
  }

  // Marks `way` valid with key signature `sig` and makes it MRU. Returns
  // true when the way already held a valid entry (the fill evicted it).
  bool Fill(std::size_t set, unsigned way, std::uint8_t sig) {
    const std::uint64_t bit = std::uint64_t{1} << way;
    const bool evicted = (valid_[set] & bit) != 0;
    if (!evicted) {
      valid_[set] |= bit;
      ++valid_count_;
    }
    sigs_[set * stride_ + way] = sig;
    Touch(set, way);
    return evicted;
  }

  // Taint stamp of (set, way); entry index in taint() is set * ways + way.
  void Stamp(std::size_t set, unsigned way, TaintTag owner, std::size_t colour) {
    if (taint_.on()) {
      taint_.Tag(set * ways_ + way, owner, colour);
    }
  }

  void Invalidate(std::size_t set, unsigned way) { Retain(set, ~(std::uint64_t{1} << way)); }

  // Invalidates every valid way of `set` outside the `keep` mask.
  void Retain(std::size_t set, std::uint64_t keep) {
    const std::uint64_t drop = valid_[set] & ~keep;
    valid_[set] &= keep;
    valid_count_ -= static_cast<std::size_t>(std::popcount(drop));
    if (taint_.on()) {
      for (std::uint64_t m = drop; m != 0; m &= m - 1) {
        taint_.Clear(set * ways_ + static_cast<unsigned>(std::countr_zero(m)));
      }
    }
  }

  void InvalidateAll() {
    std::fill(valid_.begin(), valid_.end(), 0);
    valid_count_ = 0;
    if (taint_.on()) {
      taint_.ClearAll();
    }
  }

  std::uint64_t valid(std::size_t set) const { return valid_[set]; }
  std::size_t valid_count() const { return valid_count_; }
  const TaintMap& taint() const { return taint_; }

  // Folds ranks, valid masks and taint stamps into a batch-replay digest.
  // Signatures are a pure per-way function of the owner's key array, which
  // the owner folds itself.
  void DigestState(std::uint64_t& h) const {
    DigestVec(h, ranks_);
    DigestVec(h, valid_);
    taint_.DigestState(h);
  }

 private:
  static constexpr std::uint8_t kPad = 0xFF;
  static constexpr std::uint64_t kLo = 0x0101010101010101ull;
  static constexpr std::uint64_t kHi = 0x8080808080808080ull;

  std::size_t ways_ = 1;
  std::size_t stride_ = 8;            // per-set rank/signature bytes, padded for SWAR
  std::uint64_t full_mask_ = 1;       // low `ways_` bits set
  std::vector<std::uint8_t> ranks_;   // [set][stride]; 0 = MRU
  std::vector<std::uint8_t> sigs_;    // [set][stride]; stale while invalid
  std::vector<std::uint64_t> valid_;  // per-set way bitmask
  std::size_t valid_count_ = 0;
  TaintMap taint_;
};

}  // namespace tp::hw

#endif  // TP_HW_WAY_SETS_HPP_
