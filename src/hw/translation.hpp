// Interface the memory system uses to translate virtual addresses and to
// find the physical locations of page-table entries for walk costing.
// Implemented by the kernel's AddressSpace; the hardware layer only sees
// this abstract view.
#ifndef TP_HW_TRANSLATION_HPP_
#define TP_HW_TRANSLATION_HPP_

#include <cstdint>
#include <optional>
#include <vector>

#include "hw/types.hpp"

namespace tp::hw {

struct Translation {
  PAddr paddr = 0;
  bool global = false;  // TLB entry survives non-global flushes
};

// Shared change counter for contexts whose translation function is fixed
// after construction (see TranslationContext::generation).
inline constexpr std::uint64_t kStaticTranslationGeneration = 0;

class TranslationContext {
 public:
  virtual ~TranslationContext() = default;

  // Translation for the page containing `vaddr`, or nullopt on fault.
  virtual std::optional<Translation> Translate(VAddr vaddr) const = 0;

  // Monotonic change counter covering Translate()'s results: the core
  // caches page translations keyed on (context, page, *generation()), so an
  // implementation whose mappings can change after construction must bump
  // its counter on every map/unmap. Immutable contexts keep the default.
  virtual const std::uint64_t* generation() const { return &kStaticTranslationGeneration; }

  // Physical addresses of the page-table entries a hardware walker reads to
  // translate `vaddr` (outermost first). These reads go through the data
  // cache hierarchy, so page tables have cache footprints — the basis of
  // page-table side channels, which colouring kernel memory defeats.
  virtual void WalkPath(VAddr vaddr, std::vector<PAddr>& out) const = 0;

  virtual Asid asid() const = 0;
};

// Fixed paging for code that drives a core without booting a kernel (unit
// tests, the fuzz replay target, microbenchmarks): a user page maps to its
// own page number plus `user_offset`, a kernel-window address to its direct
// map, and a walk reads one entry per level from consecutive table pages at
// `pt_base`.
class FlatTranslationContext : public TranslationContext {
 public:
  struct Options {
    PAddr user_offset = 0x100000;  // paddr = page(vaddr) + offset
    PAddr pt_base = 0x7000000;     // page-table frames for WalkPath
    std::size_t walk_levels = 2;
  };

  explicit FlatTranslationContext(Asid asid) : FlatTranslationContext(asid, Options()) {}
  FlatTranslationContext(Asid asid, Options options) : asid_(asid), options_(options) {}

  std::optional<Translation> Translate(VAddr vaddr) const override {
    if (IsKernelAddress(vaddr)) {
      return Translation{PageAlignDown(PaddrOfKernelVaddr(vaddr)), false};
    }
    return Translation{PageAlignDown(vaddr) + options_.user_offset, false};
  }
  void WalkPath(VAddr vaddr, std::vector<PAddr>& out) const override {
    for (std::size_t level = 0; level < options_.walk_levels; ++level) {
      out.push_back(options_.pt_base + level * kPageSize + (PageNumber(vaddr) % 512) * 8);
    }
  }
  Asid asid() const override { return asid_; }

 private:
  Asid asid_;
  Options options_;
};

class Core;

// Installs `ctx` as both the user and the kernel context of `core`.
void InstallFlatContext(Core& core, const FlatTranslationContext& ctx, bool kernel_global = true);

}  // namespace tp::hw

#endif  // TP_HW_TRANSLATION_HPP_
