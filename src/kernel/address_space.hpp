// Address spaces: the kernel-side implementation of hw::TranslationContext.
//
// Two flavours:
//  - user vspaces with a two-level page-table whose table frames are
//    allocated from caller-supplied (hence colourable) physical memory —
//    partitioning user memory partitions page tables too, which is how seL4
//    defeats page-table side channels (paper §5.3.1);
//  - kernel windows (one per kernel image) that direct-map physical memory
//    at kKernelBase. Each image has its own page-table frames, so even the
//    kernel's translation structures are per-domain after cloning.
#ifndef TP_KERNEL_ADDRESS_SPACE_HPP_
#define TP_KERNEL_ADDRESS_SPACE_HPP_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "hw/translation.hpp"
#include "hw/types.hpp"
#include "kernel/types.hpp"

namespace tp::kernel {

// Allocates physical page frames for page tables; wired to the owning
// domain's untyped pool by the caller.
using FrameAllocator = std::function<std::optional<hw::PAddr>()>;

class AddressSpace final : public hw::TranslationContext {
 public:
  // User vspace rooted at `root_frame`; interior table frames come from
  // `allocator` on demand.
  AddressSpace(hw::Asid asid, hw::PAddr root_frame, FrameAllocator allocator);

  // Kernel window for a kernel image: direct map with per-image page-table
  // frames (scattered, coloured pages for cloned images).
  static AddressSpace KernelWindow(hw::Asid asid, std::vector<hw::PAddr> pt_frames);

  // Maps the page containing `vaddr` to the frame at `paddr`.
  // Returns false if a table frame was needed but allocation failed.
  bool Map(hw::VAddr vaddr, hw::PAddr paddr, bool global = false);
  void Unmap(hw::VAddr vaddr);
  void SetAllocator(FrameAllocator alloc) { allocator_ = std::move(alloc); }
  std::size_t MappedPages() const { return mappings_.size(); }

  // hw::TranslationContext:
  std::optional<hw::Translation> Translate(hw::VAddr vaddr) const override;
  void WalkPath(hw::VAddr vaddr, std::vector<hw::PAddr>& out) const override;
  hw::Asid asid() const override { return asid_; }
  const std::uint64_t* generation() const override { return &translate_generation_; }

  hw::PAddr root_frame() const { return root_frame_; }
  const std::vector<hw::PAddr>& table_frames() const { return table_frames_; }

 private:
  struct Mapping {
    hw::PAddr frame = 0;
    bool global = false;
  };

  static constexpr std::uint64_t kEntriesPerTable = 512;
  static constexpr std::uint64_t kEntrySize = 8;

  AddressSpace(hw::Asid asid, std::vector<hw::PAddr> pt_frames, bool direct_map);

  std::uint64_t TopIndex(hw::VAddr vaddr) const {
    return (hw::PageNumber(vaddr) / kEntriesPerTable) % kEntriesPerTable;
  }
  std::uint64_t LeafIndex(hw::VAddr vaddr) const {
    return hw::PageNumber(vaddr) % kEntriesPerTable;
  }

  hw::Asid asid_;
  bool direct_map_ = false;
  hw::PAddr root_frame_ = 0;
  FrameAllocator allocator_;
  std::uint64_t translate_generation_ = 0;  // bumped on every Map/Unmap
  std::unordered_map<std::uint64_t, Mapping> mappings_;        // vpn -> frame
  std::unordered_map<std::uint64_t, hw::PAddr> leaf_tables_;   // top index -> table frame
  std::vector<hw::PAddr> table_frames_;
};

}  // namespace tp::kernel

#endif  // TP_KERNEL_ADDRESS_SPACE_HPP_
