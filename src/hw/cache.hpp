// Set-associative write-back cache model with LRU replacement and optional
// slicing (for hashed, distributed last-level caches as on Haswell).
//
// Storage is structure-of-arrays for host speed: one contiguous tag array
// plus packed per-set dirty bitmasks; valid masks, key signatures, exact-LRU
// ranks and taint stamps live in the shared hw::WaySets (way_sets.hpp).
// The hit and demand-miss paths live in this header so Core::Access inlines
// them. Running valid/dirty counters keep FlushAll/DirtyLineCount/
// ValidLineCount from scanning lines.
//
// Access() reports hit/miss and whether the fill evicted a dirty victim
// (a write-back, which costs extra cycles at the level below).
//
// Page-colouring arithmetic lives here too: a physically-indexed cache with
// more than one page worth of sets per way has Colours() > 1, and the colour
// of a physical page is a pure function of its page number. This is the
// property the time-protection colour allocator builds on (paper §2.3).
#ifndef TP_HW_CACHE_HPP_
#define TP_HW_CACHE_HPP_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/taint.hpp"
#include "hw/types.hpp"
#include "hw/way_sets.hpp"

namespace tp::hw {

enum class Indexing {
  kVirtual,   // indexed with the virtual address (L1 on most parts)
  kPhysical,  // indexed with the physical address (L2..LLC); colourable
};

struct CacheGeometry {
  std::size_t size_bytes = 0;
  std::size_t line_size = 64;
  std::size_t associativity = 1;
  std::size_t num_slices = 1;  // >1 models a distributed, hashed LLC

  std::size_t TotalLines() const { return size_bytes / line_size; }
  std::size_t SetsPerSlice() const {
    return size_bytes / (line_size * associativity * num_slices);
  }
  // Bytes spanned by one way of one slice; the unit of page colouring.
  std::size_t WaySpanBytes() const { return SetsPerSlice() * line_size; }
  // "" when the geometry is buildable, else the reason. The constructor
  // enforces the same bounds (throwing std::invalid_argument), so fuzzers
  // and config loaders can pre-screen candidates without try/catch — and a
  // degenerate geometry can never reach the division arithmetic above.
  std::string Validate() const;
  // Number of page colours in this cache (1 means uncolourable).
  std::size_t Colours() const {
    std::size_t span = WaySpanBytes();
    return span > kPageSize ? span / kPageSize : 1;
  }
};

struct AccessResult {
  bool hit = false;
  bool writeback = false;      // fill evicted a dirty line
  bool fill = false;           // line was (re)inserted
  bool evicted_valid = false;  // fill evicted a valid line (victim below)
  std::uint64_t evicted_line_addr = 0;  // victim's line number (paddr / line_size)
};

class SetAssociativeCache {
 public:
  SetAssociativeCache(std::string name, const CacheGeometry& geometry, Indexing indexing);

  // Looks up (and on miss fills) the line containing `addr_for_tag`.
  // `addr_for_index` selects the set: the virtual address for
  // virtually-indexed caches, the physical address otherwise. Caller passes
  // both; the cache picks per its indexing mode.
  AccessResult Access(VAddr addr_for_index, PAddr addr_for_tag, bool write) {
    const Decoded d = Decode(addr_for_index, addr_for_tag);
    const int way = FindWay(d.set, d.tag);
    if (way >= 0) {
      way_sets_.Touch(d.set, static_cast<unsigned>(way));
      if (write) {
        SetDirty(d.set, static_cast<unsigned>(way));
      }
      // Retag on hit: the line now reflects this owner's activity at *this*
      // level only (a deterministic L1 re-touch must not launder a
      // secret-dependent LLC copy).
      way_sets_.Stamp(d.set, static_cast<unsigned>(way), taint_owner_, TaintColourOfTag(d.tag));
      AccessResult result;
      result.hit = true;
      return result;
    }
    return MissFill(d, write);
  }

  // Inserts a line without reporting timing (hardware prefetch fill).
  // Returns true if the fill evicted a dirty line.
  bool Insert(VAddr addr_for_index, PAddr addr_for_tag, bool dirty = false);

  bool Contains(VAddr addr_for_index, PAddr addr_for_tag) const {
    const Decoded d = Decode(addr_for_index, addr_for_tag);
    return FindWay(d.set, d.tag) >= 0;
  }

  // Invalidates one line if present; returns true if it was dirty.
  bool InvalidateLine(VAddr addr_for_index, PAddr addr_for_tag);

  // Invalidate by physical address only. For virtually-indexed caches whose
  // index spans more bits than the page offset, every candidate set is
  // probed (the alias sets a physical line may occupy).
  bool InvalidateLineByPaddr(PAddr paddr);

  // Write-back + invalidate of the entire cache; returns dirty lines flushed.
  std::size_t FlushAll();
  // Invalidate without write-back (instruction caches).
  std::size_t InvalidateAll();

  std::size_t DirtyLineCount() const { return dirty_count_; }
  std::size_t ValidLineCount() const { return way_sets_.valid_count(); }

  // Set index (within its slice) that an address maps to; exposed so attack
  // code can construct eviction sets exactly as Mastik does on hardware.
  // Power-of-two geometries (every real platform) decode with shift/mask;
  // the div/mod fallback keeps odd test geometries exact.
  std::size_t SetIndexOf(std::uint64_t addr) const {
    if (line_shift_ >= 0 && set_mask_ != 0) {
      return static_cast<std::size_t>((addr >> line_shift_) & set_mask_);
    }
    return static_cast<std::size_t>((addr / geometry_.line_size) % sets_per_slice_);
  }
  std::size_t SliceOf(PAddr paddr) const { return SliceHash(LineOf(paddr)); }

  // Line number (paddr / line_size) — the tag — via the same fast path.
  std::uint64_t LineOf(PAddr paddr) const {
    return line_shift_ >= 0 ? paddr >> line_shift_ : paddr / geometry_.line_size;
  }

  const CacheGeometry& geometry() const { return geometry_; }
  Indexing indexing() const { return indexing_; }
  const std::string& name() const { return name_; }

  // Page colour of a physical address for this cache's geometry.
  std::size_t ColourOf(PAddr paddr) const {
    return PageNumber(paddr) % geometry_.Colours();
  }

  // Folds the behavioural state (tags, dirty masks and the way state) into
  // a batch-replay digest.
  void DigestState(std::uint64_t& h) const;

  // Taint metadata (active only when taint tracking was enabled at
  // construction). The owner stamps every line this cache fills or touches
  // until changed; entry index is set * ways + way.
  void SetTaintOwner(TaintTag owner) { taint_owner_ = owner; }
  TaintTag taint_owner() const { return taint_owner_; }
  const TaintMap& taint() const { return way_sets_.taint(); }
  std::size_t ways() const { return ways_; }
  std::size_t sets_per_slice() const { return sets_per_slice_; }

  // Physical address of the line held at (global set, way), or 0 when the
  // way is invalid — lets the contract checker name the violating line
  // itself, not just the slot it occupies.
  PAddr LinePaddrAt(std::size_t set, std::size_t way) const {
    if (set >= dirty_.size() || way >= ways_ || ((way_sets_.valid(set) >> way) & 1) == 0) {
      return 0;
    }
    return static_cast<PAddr>(tags_[set * ways_ + way] * geometry_.line_size);
  }

 private:
  // Page colour of the line a tag denotes, clamped to one colour when the
  // geometry has more colours than a mask word holds.
  std::size_t TaintColourOfTag(std::uint64_t tag) const {
    return taint_colours_ > 1
               ? PageNumber(static_cast<PAddr>(tag * geometry_.line_size)) % taint_colours_
               : 0;
  }

  // One-step address decode shared by every lookup path: global set index
  // (slice * sets_per_slice + set) and tag from a single pass over the
  // address bits, using the constants precomputed at construction.
  struct Decoded {
    std::size_t set;
    std::uint64_t tag;
  };
  Decoded Decode(VAddr addr_for_index, PAddr addr_for_tag) const {
    const std::uint64_t tag = LineOf(addr_for_tag);
    std::size_t set;
    if (indexing_ == Indexing::kPhysical) {
      // Physical indexing shares the tag's line decode.
      set = set_mask_ != 0 && line_shift_ >= 0
                ? static_cast<std::size_t>(tag & set_mask_)
                : static_cast<std::size_t>(tag % sets_per_slice_);
    } else {
      set = SetIndexOf(addr_for_index);
    }
    if (num_slices_ > 1) {
      set += SliceHash(tag) * sets_per_slice_;
    }
    return Decoded{set, tag};
  }

  // Slice hash over the line address, modelling the undocumented Haswell LLC
  // slice function: a strong bit mix (the real function is a parity tree
  // over many address bits) that spreads even highly structured address
  // patterns over the slices, while leaving the per-slice set index (and
  // therefore page-colour arithmetic) intact.
  std::size_t SliceHash(std::uint64_t line_addr) const {
    if (num_slices_ <= 1) {
      return 0;
    }
    std::uint64_t h = line_addr * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ull;
    h ^= h >> 32;
    return static_cast<std::size_t>(slice_mask_ != 0 ? h & slice_mask_ : h % num_slices_);
  }

  // Way holding (set, tag), or -1: the single tag match used by the hit
  // path, Contains and InvalidateLine alike.
  int FindWay(std::size_t set, std::uint64_t tag) const {
    const std::uint64_t* tags = tags_.data() + set * ways_;
    return way_sets_.Find(set, WaySets::Signature(tag),
                          [&](unsigned way) { return tags[way] == tag; });
  }

  void SetDirty(std::size_t set, unsigned way) {
    const std::uint64_t bit = std::uint64_t{1} << way;
    if ((dirty_[set] & bit) == 0) {
      dirty_[set] |= bit;
      ++dirty_count_;
    }
  }

  // Clears the way's dirty bit; returns whether it was set.
  bool ClearDirty(std::size_t set, unsigned way) {
    const std::uint64_t bit = std::uint64_t{1} << way;
    if ((dirty_[set] & bit) == 0) {
      return false;
    }
    dirty_[set] &= ~bit;
    --dirty_count_;
    return true;
  }

  // Fills (set, tag) into the set's victim way. In the header so the
  // demand-miss path inlines into Access; Insert shares it.
  AccessResult MissFill(const Decoded& d, bool write) {
    AccessResult result;
    const unsigned victim = way_sets_.Victim(d.set);
    std::uint64_t& tag = tags_[d.set * ways_ + victim];
    if (way_sets_.Fill(d.set, victim, WaySets::Signature(d.tag))) {
      result.evicted_valid = true;
      result.evicted_line_addr = tag;
      result.writeback = ClearDirty(d.set, victim);
    }
    tag = d.tag;
    if (write) {
      SetDirty(d.set, victim);
    }
    way_sets_.Stamp(d.set, victim, taint_owner_, TaintColourOfTag(d.tag));
    result.fill = true;
    return result;
  }

  std::string name_;
  CacheGeometry geometry_;
  Indexing indexing_;
  std::size_t sets_per_slice_ = 1;
  std::size_t num_slices_ = 1;
  std::size_t ways_ = 1;
  // Precomputed decode constants: line_shift_ = log2(line_size) (or -1 when
  // line_size is not a power of two), set_mask_ = sets_per_slice - 1 when
  // that is a power of two (else 0 -> modulo fallback), slice_mask_
  // likewise for the slice count.
  int line_shift_ = -1;
  std::uint64_t set_mask_ = 0;
  std::uint64_t slice_mask_ = 0;

  std::vector<std::uint64_t> tags_;   // [slice][set][way] flattened
  std::vector<std::uint64_t> dirty_;  // per-set way bitmask
  std::size_t dirty_count_ = 0;
  WaySets way_sets_;

  TaintTag taint_owner_ = 0;
  std::size_t taint_colours_ = 1;  // stays 1 while taint tracking is off
};

}  // namespace tp::hw

#endif  // TP_HW_CACHE_HPP_
