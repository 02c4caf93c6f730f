#include "fuzz/reference_model.hpp"

namespace tp::fuzz {

using hw::AccessResult;
using hw::Asid;
using hw::BranchResult;
using hw::Indexing;
using hw::PAddr;
using hw::VAddr;

std::size_t ReferenceCache::SliceHash(std::uint64_t line_addr, std::size_t num_slices) {
  if (num_slices <= 1) {
    return 0;
  }
  std::uint64_t h = line_addr * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  h *= 0xD6E8FEB86659FD93ull;
  h ^= h >> 32;
  return static_cast<std::size_t>(h % num_slices);
}

std::size_t ReferenceCache::SetBase(VAddr addr_for_index, PAddr addr_for_tag) const {
  std::uint64_t index_addr = indexing_ == Indexing::kVirtual ? addr_for_index : addr_for_tag;
  std::size_t slice = SliceHash(LineOf(addr_for_tag), geometry_.num_slices);
  std::size_t set = static_cast<std::size_t>(LineOf(index_addr) % sets_per_slice_);
  return (slice * sets_per_slice_ + set) * geometry_.associativity;
}

AccessResult ReferenceCache::Access(VAddr addr_for_index, PAddr addr_for_tag, bool write) {
  std::size_t base = SetBase(addr_for_index, addr_for_tag);
  std::uint64_t tag = LineOf(addr_for_tag);
  AccessResult result;
  std::size_t victim = base;
  std::uint64_t victim_lru = ~std::uint64_t{0};
  for (std::size_t way = 0; way < geometry_.associativity; ++way) {
    Line& line = lines_[base + way];
    if (line.valid && line.tag == tag) {
      line.lru = ++lru_clock_;
      line.dirty = line.dirty || write;
      result.hit = true;
      return result;
    }
    if (!line.valid) {
      victim = base + way;
      victim_lru = 0;
    } else if (line.lru < victim_lru) {
      victim = base + way;
      victim_lru = line.lru;
    }
  }
  Line& line = lines_[victim];
  if (line.valid) {
    result.evicted_valid = true;
    result.evicted_line_addr = line.tag;
    if (line.dirty) {
      result.writeback = true;
    }
  }
  line.tag = tag;
  line.valid = true;
  line.dirty = write;
  line.lru = ++lru_clock_;
  result.fill = true;
  return result;
}

bool ReferenceCache::Insert(VAddr addr_for_index, PAddr addr_for_tag, bool dirty) {
  std::size_t base = SetBase(addr_for_index, addr_for_tag);
  std::uint64_t tag = LineOf(addr_for_tag);
  std::size_t victim = base;
  std::uint64_t victim_lru = ~std::uint64_t{0};
  for (std::size_t way = 0; way < geometry_.associativity; ++way) {
    Line& line = lines_[base + way];
    if (line.valid && line.tag == tag) {
      line.dirty = line.dirty || dirty;
      return false;
    }
    if (!line.valid) {
      victim = base + way;
      victim_lru = 0;
    } else if (line.lru < victim_lru) {
      victim = base + way;
      victim_lru = line.lru;
    }
  }
  Line& line = lines_[victim];
  bool evicted_dirty = line.valid && line.dirty;
  line.tag = tag;
  line.valid = true;
  line.dirty = dirty;
  line.lru = ++lru_clock_;
  return evicted_dirty;
}

bool ReferenceCache::Contains(VAddr addr_for_index, PAddr addr_for_tag) const {
  std::size_t base = SetBase(addr_for_index, addr_for_tag);
  std::uint64_t tag = LineOf(addr_for_tag);
  for (std::size_t way = 0; way < geometry_.associativity; ++way) {
    const Line& line = lines_[base + way];
    if (line.valid && line.tag == tag) {
      return true;
    }
  }
  return false;
}

bool ReferenceCache::InvalidateLine(VAddr addr_for_index, PAddr addr_for_tag) {
  std::size_t base = SetBase(addr_for_index, addr_for_tag);
  std::uint64_t tag = LineOf(addr_for_tag);
  for (std::size_t way = 0; way < geometry_.associativity; ++way) {
    Line& line = lines_[base + way];
    if (line.valid && line.tag == tag) {
      bool was_dirty = line.dirty;
      line.valid = false;
      line.dirty = false;
      return was_dirty;
    }
  }
  return false;
}

bool ReferenceCache::InvalidateLineByPaddr(PAddr paddr) {
  if (indexing_ == Indexing::kPhysical) {
    return InvalidateLine(paddr, paddr);
  }
  std::size_t span = geometry_.WaySpanBytes();
  std::size_t variants = span > hw::kPageSize ? span / hw::kPageSize : 1;
  bool any_dirty = false;
  for (std::size_t k = 0; k < variants; ++k) {
    VAddr candidate = (paddr & hw::kPageOffsetMask) | (static_cast<VAddr>(k) << hw::kPageBits);
    any_dirty = InvalidateLine(candidate, paddr) || any_dirty;
  }
  return any_dirty;
}

std::size_t ReferenceCache::FlushAll() {
  std::size_t dirty = 0;
  for (Line& line : lines_) {
    if (line.valid && line.dirty) {
      ++dirty;
    }
    line.valid = false;
    line.dirty = false;
  }
  return dirty;
}

std::size_t ReferenceCache::InvalidateAll() {
  std::size_t valid = 0;
  for (Line& line : lines_) {
    if (line.valid) {
      ++valid;
    }
    line.valid = false;
    line.dirty = false;
  }
  return valid;
}

std::size_t ReferenceCache::DirtyLineCount() const {
  std::size_t n = 0;
  for (const Line& line : lines_) {
    n += line.valid && line.dirty ? 1 : 0;
  }
  return n;
}

std::size_t ReferenceCache::ValidLineCount() const {
  std::size_t n = 0;
  for (const Line& line : lines_) {
    n += line.valid ? 1 : 0;
  }
  return n;
}

bool ReferenceTlb::Lookup(std::uint64_t vpn, Asid asid) {
  std::size_t base = SetBase(vpn);
  for (std::size_t way = 0; way < geometry_.associativity; ++way) {
    Entry& e = entries_[base + way];
    if (e.valid && e.vpn == vpn && (e.global || e.asid == asid)) {
      e.lru = ++lru_clock_;
      return true;
    }
  }
  return false;
}

void ReferenceTlb::Insert(std::uint64_t vpn, Asid asid, bool global) {
  std::size_t base = SetBase(vpn);
  std::size_t victim = base;
  std::uint64_t victim_lru = ~std::uint64_t{0};
  for (std::size_t way = 0; way < geometry_.associativity; ++way) {
    Entry& e = entries_[base + way];
    if (e.valid && e.vpn == vpn && (e.global || e.asid == asid)) {
      e.lru = ++lru_clock_;
      return;
    }
    if (!e.valid) {
      victim = base + way;
      victim_lru = 0;
    } else if (e.lru < victim_lru) {
      victim = base + way;
      victim_lru = e.lru;
    }
  }
  Entry& e = entries_[victim];
  e.vpn = vpn;
  e.asid = asid;
  e.global = global;
  e.valid = true;
  e.lru = ++lru_clock_;
}

void ReferenceTlb::FlushAll() {
  for (Entry& e : entries_) {
    e.valid = false;
  }
}

void ReferenceTlb::FlushNonGlobal() {
  for (Entry& e : entries_) {
    if (!e.global) {
      e.valid = false;
    }
  }
}

void ReferenceTlb::FlushAsid(Asid asid) {
  for (Entry& e : entries_) {
    if (e.valid && !e.global && e.asid == asid) {
      e.valid = false;
    }
  }
}

std::size_t ReferenceTlb::ValidCount() const {
  std::size_t n = 0;
  for (const Entry& e : entries_) {
    n += e.valid ? 1 : 0;
  }
  return n;
}

std::size_t ReferenceBranchPredictor::BtbSetBase(VAddr pc) const {
  std::size_t sets = geometry_.btb_entries / geometry_.btb_associativity;
  return ((pc >> 2) % sets) * geometry_.btb_associativity;
}

std::size_t ReferenceBranchPredictor::PhtIndex(VAddr pc) const {
  std::uint64_t history_mask = (std::uint64_t{1} << geometry_.history_bits) - 1;
  return static_cast<std::size_t>(((pc >> 2) ^ (ghr_ & history_mask)) % geometry_.pht_entries);
}

BranchResult ReferenceBranchPredictor::Branch(VAddr pc, VAddr target, bool taken,
                                              bool conditional) {
  BranchResult result;

  bool predicted_taken = true;
  if (conditional) {
    std::size_t idx = PhtIndex(pc);
    predicted_taken = pht_[idx] >= 2;
    if (taken && pht_[idx] < 3) {
      ++pht_[idx];
    } else if (!taken && pht_[idx] > 0) {
      --pht_[idx];
    }
    std::uint64_t history_mask = (std::uint64_t{1} << geometry_.history_bits) - 1;
    ghr_ = ((ghr_ << 1) | (taken ? 1 : 0)) & history_mask;
  }

  bool target_hit = false;
  std::size_t base = BtbSetBase(pc);
  std::uint64_t tag = pc >> 2;
  std::size_t victim = base;
  std::uint64_t victim_lru = ~std::uint64_t{0};
  for (std::size_t way = 0; way < geometry_.btb_associativity; ++way) {
    BtbEntry& e = btb_[base + way];
    if (e.valid && e.tag == tag) {
      target_hit = e.target == target;
      e.lru = ++lru_clock_;
      if (taken) {
        e.target = target;
      }
      victim = static_cast<std::size_t>(-1);
      break;
    }
    if (!e.valid) {
      victim = base + way;
      victim_lru = 0;
    } else if (e.lru < victim_lru) {
      victim = base + way;
      victim_lru = e.lru;
    }
  }
  if (taken && victim != static_cast<std::size_t>(-1)) {
    BtbEntry& e = btb_[victim];
    e.tag = tag;
    e.target = target;
    e.valid = true;
    e.lru = ++lru_clock_;
  }

  bool direction_wrong = conditional && (predicted_taken != taken);
  bool target_wrong = taken && !target_hit;
  if (direction_wrong || target_wrong) {
    result.mispredicted = true;
    result.penalty = geometry_.mispredict_penalty;
  }
  return result;
}

void ReferenceBranchPredictor::FlushBtb() {
  for (BtbEntry& e : btb_) {
    e.valid = false;
  }
}

void ReferenceBranchPredictor::FlushHistory() {
  ghr_ = 0;
  pht_.assign(pht_.size(), 1);
}

std::size_t ReferenceBranchPredictor::BtbValidCount() const {
  std::size_t n = 0;
  for (const BtbEntry& e : btb_) {
    if (e.valid) {
      ++n;
    }
  }
  return n;
}

}  // namespace tp::fuzz
