#include "hw/cache.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "hw/digest.hpp"

namespace tp::hw {

std::string CacheGeometry::Validate() const {
  if (line_size == 0) {
    return "line_size must be nonzero";
  }
  // The per-set valid/dirty bitmasks pack one bit per way into a 64-bit
  // word; a wider geometry must fail loudly (release builds included), not
  // silently wrap the masks.
  if (associativity < 1 || associativity > 64) {
    return "associativity must be 1..64";
  }
  if (num_slices == 0) {
    return "num_slices must be nonzero";
  }
  if (size_bytes == 0 || size_bytes % line_size != 0) {
    return "size_bytes must be a nonzero multiple of line_size";
  }
  const std::size_t lines = size_bytes / line_size;
  if (num_slices > lines || lines % num_slices != 0 ||
      (lines / num_slices) % associativity != 0) {
    return "size_bytes must hold a whole number of sets per slice "
           "(line_size * associativity * num_slices must divide it)";
  }
  return "";
}

SetAssociativeCache::SetAssociativeCache(std::string name, const CacheGeometry& geometry,
                                         Indexing indexing)
    : name_(std::move(name)), geometry_(geometry), indexing_(indexing) {
  if (std::string err = geometry_.Validate(); !err.empty()) {
    throw std::invalid_argument("SetAssociativeCache " + name_ + ": " + err);
  }
  sets_per_slice_ = geometry_.SetsPerSlice();
  num_slices_ = geometry_.num_slices;
  ways_ = geometry_.associativity;
  if (std::has_single_bit(geometry_.line_size)) {
    line_shift_ = std::countr_zero(geometry_.line_size);
  }
  if (sets_per_slice_ > 0 && std::has_single_bit(sets_per_slice_)) {
    set_mask_ = sets_per_slice_ - 1;
  }
  if (num_slices_ > 1 && std::has_single_bit(num_slices_)) {
    slice_mask_ = num_slices_ - 1;
  }

  const std::size_t sets = sets_per_slice_ * num_slices_;
  tags_.resize(geometry_.TotalLines());
  dirty_.assign(sets, 0);
  if (TaintTrackingEnabled()) {
    const std::size_t colours = geometry_.Colours();
    taint_colours_ = colours >= 1 && colours <= 64 ? colours : 1;
  }
  way_sets_ = WaySets(sets, ways_, taint_colours_);
}

bool SetAssociativeCache::Insert(VAddr addr_for_index, PAddr addr_for_tag, bool dirty) {
  const Decoded d = Decode(addr_for_index, addr_for_tag);
  if (int way = FindWay(d.set, d.tag); way >= 0) {
    // Already present: merge the dirty flag without an LRU touch (prefetch
    // fills never promoted under the previous replacement state either).
    if (dirty) {
      SetDirty(d.set, static_cast<unsigned>(way));
    }
    way_sets_.Stamp(d.set, static_cast<unsigned>(way), taint_owner_, TaintColourOfTag(d.tag));
    return false;
  }
  return MissFill(d, dirty).writeback;
}

bool SetAssociativeCache::InvalidateLine(VAddr addr_for_index, PAddr addr_for_tag) {
  const Decoded d = Decode(addr_for_index, addr_for_tag);
  const int way = FindWay(d.set, d.tag);
  if (way < 0) {
    return false;
  }
  way_sets_.Invalidate(d.set, static_cast<unsigned>(way));
  return ClearDirty(d.set, static_cast<unsigned>(way));
}

bool SetAssociativeCache::InvalidateLineByPaddr(PAddr paddr) {
  if (indexing_ == Indexing::kPhysical) {
    return InvalidateLine(paddr, paddr);
  }
  // Virtually-indexed: index bits above the page offset are unknown; probe
  // every alias candidate.
  std::size_t span = geometry_.WaySpanBytes();
  std::size_t variants = span > kPageSize ? span / kPageSize : 1;
  bool any_dirty = false;
  for (std::size_t k = 0; k < variants; ++k) {
    VAddr candidate = (paddr & kPageOffsetMask) | (static_cast<VAddr>(k) << kPageBits);
    any_dirty = InvalidateLine(candidate, paddr) || any_dirty;
  }
  return any_dirty;
}

std::size_t SetAssociativeCache::FlushAll() {
  const std::size_t dirty = dirty_count_;
  InvalidateAll();
  return dirty;
}

std::size_t SetAssociativeCache::InvalidateAll() {
  const std::size_t valid = way_sets_.valid_count();
  way_sets_.InvalidateAll();
  std::fill(dirty_.begin(), dirty_.end(), 0);
  dirty_count_ = 0;
  return valid;
}

void SetAssociativeCache::DigestState(std::uint64_t& h) const {
  DigestVec(h, tags_);
  DigestVec(h, dirty_);
  way_sets_.DigestState(h);
}

}  // namespace tp::hw
