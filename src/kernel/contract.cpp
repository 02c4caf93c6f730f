#include "kernel/contract.hpp"

#include <cstdio>
#include <string>

#include "hw/core.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"

namespace tp::kernel {

namespace {

// Mirrors the clamp the structures apply when enabling their taint maps: a
// geometry with more page colours than a mask word is tracked as one colour
// (everything observable, conservative).
std::size_t ClampColours(std::size_t colours) {
  return colours >= 1 && colours <= 64 ? colours : 1;
}

std::string HexAddr(hw::PAddr addr) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(addr));
  return buf;
}

void Record(hw::ContractTally& tally, std::string structure, std::string where,
            hw::TaintTag owner, DomainId incoming) {
  if (tally.has_first) {
    return;
  }
  tally.has_first = true;
  tally.first = hw::TaintViolation{std::move(structure), std::move(where), owner,
                                   static_cast<hw::TaintTag>(incoming), tally.switches};
}

}  // namespace

ContractChecker::ContractChecker(Kernel& kernel) : kernel_(kernel) {}

void ContractChecker::RegisterDomainColours(DomainId domain,
                                            const std::set<std::size_t>& colours) {
  domain_colours_[domain] = std::vector<std::size_t>(colours.begin(), colours.end());
}

std::uint64_t ContractChecker::ObservableMask(DomainId incoming,
                                              std::size_t structure_colours) const {
  auto it = domain_colours_.find(incoming);
  if (it == domain_colours_.end() || it->second.empty()) {
    return ~std::uint64_t{0};  // unrestricted domain: every colour reachable
  }
  std::uint64_t mask = 0;
  for (std::size_t llc_colour : it->second) {
    mask |= std::uint64_t{1} << (llc_colour % structure_colours);
  }
  return mask;
}

void ContractChecker::CheckSwitch(hw::CoreId core, DomainId incoming) {
  hw::ContractTally& tally = hw::ThreadContractTally();
  ++tally.switches;
  std::uint64_t foreign = 0;

  hw::Core& cpu = kernel_.machine_.core(core);
  const hw::TaintTag in_tag = static_cast<hw::TaintTag>(incoming);

  // One tagged structure with `colours` page colours: count the entries
  // another domain owns in a colour `incoming` observes, and localise the
  // first with `where(index)` for the report.
  auto check_map = [&](const hw::TaintMap& map, const std::string& structure,
                       std::size_t colours, auto where) {
    if (!map.on()) {
      return;
    }
    const std::uint64_t mask = ObservableMask(incoming, ClampColours(colours));
    const std::uint64_t n = map.ForeignCount(in_tag, mask);
    if (n == 0) {
      return;
    }
    foreign += n;
    if (!tally.has_first) {
      const std::size_t idx = map.FindForeign(in_tag, mask);
      Record(tally, structure, where(idx), map.OwnerOf(idx), incoming);
    }
  };
  auto set_way = [](std::size_t ways) {
    return [ways](std::size_t idx) {
      return "set " + std::to_string(idx / ways) + " way " + std::to_string(idx % ways);
    };
  };

  // Caches first (the paper's primary channels), innermost outwards.
  for (hw::SetAssociativeCache* cache :
       {&cpu.l1i(), &cpu.l1d(), cpu.l2(), &kernel_.machine_.llc()}) {
    if (cache == nullptr) {
      continue;
    }
    check_map(cache->taint(), cache->name(), cache->geometry().Colours(), [cache](std::size_t idx) {
      const std::size_t set = idx / cache->ways();
      const std::size_t way = idx % cache->ways();
      std::string where = "slice " + std::to_string(set / cache->sets_per_slice()) + " set " +
                          std::to_string(set % cache->sets_per_slice()) + " way " +
                          std::to_string(way);
      if (hw::PAddr line = cache->LinePaddrAt(set, way); line != 0) {
        where += " line " + HexAddr(line);
      }
      return where;
    });
  }
  for (hw::Tlb* tlb : {&cpu.itlb(), &cpu.dtlb(), &cpu.l2tlb()}) {
    check_map(tlb->taint(), tlb->name(), 1, set_way(tlb->ways()));
  }

  hw::BranchPredictor& bp = cpu.branch_predictor();
  if (bp.btb_taint().on()) {
    check_map(bp.btb_taint(), "BTB", 1, set_way(bp.btb_associativity()));
    check_map(bp.pht_taint(), "PHT", 1,
              [](std::size_t idx) { return "counter " + std::to_string(idx); });
    if (bp.ghr_owner() != 0 && bp.ghr_owner() != in_tag) {
      ++foreign;
      Record(tally, "GHR", "global history register", bp.ghr_owner(), incoming);
    }
  }

  // Host-side translation memo: stale entries are residual state even
  // though the memo key prevents their reuse.
  if (int half = cpu.StaleTranslationMemo(); half >= 0) {
    ++foreign;
    Record(tally, "translation-memo", half == 0 ? "user half" : "kernel half", 0, incoming);
  }

  // Pending interrupts of partitioned-out domains that could still fire
  // into this slice (the x86 accepted-past-mask race of §4.3).
  const hw::InterruptController& irqc = kernel_.machine_.irq_controller();
  auto incoming_image = kernel_.domain_image_.find(incoming);
  const ObjId incoming_img =
      incoming_image != kernel_.domain_image_.end() ? incoming_image->second : kNullObj;
  for (const auto& [domain, image_id] : kernel_.domain_image_) {
    if (domain == 0 || domain == incoming || image_id == incoming_img) {
      continue;  // a shared image's lines are not another domain's residue
    }
    const KernelImageObj& image = kernel_.objects_.As<KernelImageObj>(image_id);
    for (hw::IrqLine line : image.irqs) {
      if (irqc.IsDeliverable(line)) {
        ++foreign;
        Record(tally, "IRQ", "line " + std::to_string(line),
               static_cast<hw::TaintTag>(domain), incoming);
      }
    }
  }

  // Known-unfixable residue (§5.3.2, Table 3): stream-prefetcher slots
  // survive every architected flush; count them, never flag them — with
  // one exception. Under the full-flush configuration the data prefetcher
  // is supposed to be disabled (MSR 0x1A4), so a live stale data stream
  // there means the reset mechanism itself is broken (the prefetch.reset
  // fault site): that is a violation the whitelist must not absorb.
  const std::size_t stale_data = cpu.prefetcher().StaleDataStreams(in_tag);
  const std::size_t stale_instr = cpu.prefetcher().StaleInstructionStreams(in_tag);
  if (kernel_.config_.flush_mode == FlushMode::kFull && stale_data > 0) {
    foreign += stale_data;
    Record(tally, "prefetcher",
           std::to_string(stale_data) + " live data stream(s) with the data "
           "prefetcher configured off",
           0, incoming);
    tally.whitelisted += stale_instr;
  } else {
    tally.whitelisted += stale_data + stale_instr;
  }

  if (foreign != 0) {
    ++tally.dirty_switches;
    tally.violations += foreign;
  }
}

}  // namespace tp::kernel
