#include "kernel/address_space.hpp"

#include <utility>

namespace tp::kernel {

AddressSpace::AddressSpace(hw::Asid asid, hw::PAddr root_frame, FrameAllocator allocator)
    : asid_(asid), direct_map_(false), root_frame_(root_frame), allocator_(std::move(allocator)) {
  table_frames_.push_back(root_frame_);
}

AddressSpace::AddressSpace(hw::Asid asid, std::vector<hw::PAddr> pt_frames, bool direct_map)
    : asid_(asid), direct_map_(direct_map) {
  table_frames_ = std::move(pt_frames);
  if (table_frames_.empty()) {
    table_frames_.push_back(0);
  }
  root_frame_ = table_frames_.front();
}

AddressSpace AddressSpace::KernelWindow(hw::Asid asid, std::vector<hw::PAddr> pt_frames) {
  return AddressSpace(asid, std::move(pt_frames), /*direct_map=*/true);
}

bool AddressSpace::Map(hw::VAddr vaddr, hw::PAddr paddr, bool global) {
  if (direct_map_) {
    return false;  // kernel windows are fully mapped by construction
  }
  std::uint64_t top = TopIndex(vaddr);
  if (leaf_tables_.find(top) == leaf_tables_.end()) {
    if (!allocator_) {
      return false;
    }
    std::optional<hw::PAddr> frame = allocator_();
    if (!frame.has_value()) {
      return false;
    }
    leaf_tables_.emplace(top, *frame);
    table_frames_.push_back(*frame);
  }
  mappings_[hw::PageNumber(vaddr)] = Mapping{hw::PageAlignDown(paddr), global};
  ++translate_generation_;
  return true;
}

void AddressSpace::Unmap(hw::VAddr vaddr) {
  mappings_.erase(hw::PageNumber(vaddr));
  ++translate_generation_;
}

std::optional<hw::Translation> AddressSpace::Translate(hw::VAddr vaddr) const {
  if (direct_map_) {
    if (!hw::IsKernelAddress(vaddr)) {
      return std::nullopt;
    }
    // Global-vs-per-image TLB tagging is decided by the core's context
    // configuration, not here.
    return hw::Translation{hw::PageAlignDown(hw::PaddrOfKernelVaddr(vaddr)), false};
  }
  auto it = mappings_.find(hw::PageNumber(vaddr));
  if (it == mappings_.end()) {
    return std::nullopt;
  }
  return hw::Translation{it->second.frame, it->second.global};
}

void AddressSpace::WalkPath(hw::VAddr vaddr, std::vector<hw::PAddr>& out) const {
  std::uint64_t top = TopIndex(vaddr);
  if (direct_map_) {
    // Per-image kernel page tables: entries spread over the image's
    // (possibly scattered, coloured) PT frames.
    std::size_t tables = table_frames_.size();
    out.push_back(table_frames_[top % tables] + (top % kEntriesPerTable) * kEntrySize);
    out.push_back(table_frames_[LeafIndex(vaddr) % tables] +
                  (LeafIndex(vaddr) % kEntriesPerTable) * kEntrySize);
    return;
  }
  out.push_back(root_frame_ + top * kEntrySize);
  auto it = leaf_tables_.find(top);
  if (it != leaf_tables_.end()) {
    out.push_back(it->second + LeafIndex(vaddr) * kEntrySize);
  }
}

}  // namespace tp::kernel
