#include "hw/machine.hpp"

#include "hw/digest.hpp"

namespace tp::hw {

MachineConfig MachineConfig::Haswell(std::size_t cores) {
  MachineConfig c;
  c.name = "Haswell (x86)";
  c.arch = Arch::kX86;
  c.clock_ghz = 3.4;
  c.num_cores = cores;

  // Table 1: 64 B lines; L1 32 KiB 8-way; L2 256 KiB 8-way; L3 8 MiB 16-way.
  c.l1i = CacheGeometry{.size_bytes = 32 * 1024, .line_size = 64, .associativity = 8};
  c.l1d = CacheGeometry{.size_bytes = 32 * 1024, .line_size = 64, .associativity = 8};
  c.has_private_l2 = true;
  c.l2 = CacheGeometry{.size_bytes = 256 * 1024, .line_size = 64, .associativity = 8};
  // Distributed LLC: one slice per core; slicing raises usable colours to 32
  // (Yarom et al. 2015), matching §6.1's "32 vs 8 colours on our Haswell".
  c.llc = CacheGeometry{
      .size_bytes = 8 * 1024 * 1024, .line_size = 64, .associativity = 16, .num_slices = 4};

  // Table 1: I-TLB 64/8-way, D-TLB 64/4-way, L2-TLB 1024/8-way.
  c.itlb = TlbGeometry{.entries = 64, .associativity = 8};
  c.dtlb = TlbGeometry{.entries = 64, .associativity = 4};
  c.l2tlb = TlbGeometry{.entries = 1024, .associativity = 8};

  c.bp = BranchPredictorGeometry{.btb_entries = 4096,
                                 .btb_associativity = 4,
                                 .pht_entries = 16384,
                                 .history_bits = 16,
                                 .mispredict_penalty = 15};
  c.prefetcher = PrefetcherGeometry{.data_slots = 16,
                                    .instruction_slots = 2,
                                    .confidence_threshold = 2,
                                    .prefetch_degree = 2,
                                    .credits_on_train = 4,
                                    .interference_cycles = 6,
                                    .max_stale_issues_per_miss = 2};
  c.lat = Latencies{.base_op = 1,
                    .l1_hit = 4,
                    .l2_hit = 12,
                    .llc_hit = 40,
                    .dram = 200,
                    .dram_stream = 50,
                    .writeback = 2,
                    .l2_tlb_hit = 8,
                    .flush_per_line = 6,
                    .flush_dirty_extra = 10,
                    .tlb_flush = 100,
                    .bp_flush = 200};

  c.irq_arch = IrqArch::kX86Hierarchical;
  c.ram_bytes = std::uint64_t{16} * 1024 * 1024 * 1024;
  c.has_architected_l1_flush = false;
  return c;
}

MachineConfig MachineConfig::Sabre(std::size_t cores) {
  MachineConfig c;
  c.name = "Sabre (Arm v7)";
  c.arch = Arch::kArm;
  c.clock_ghz = 0.8;
  c.num_cores = cores;

  // Table 1: 32 B lines; L1 32 KiB 4-way; shared L2 1 MiB 16-way; no L3.
  c.l1i = CacheGeometry{.size_bytes = 32 * 1024, .line_size = 32, .associativity = 4};
  c.l1d = CacheGeometry{.size_bytes = 32 * 1024, .line_size = 32, .associativity = 4};
  c.has_private_l2 = false;
  c.llc = CacheGeometry{
      .size_bytes = 1024 * 1024, .line_size = 32, .associativity = 16, .num_slices = 1};

  // Table 1: I-TLB 32/1-way, D-TLB 32/1-way, L2-TLB 128/2-way. The 2-way
  // L2 TLB is what makes non-global kernel mappings expensive (Table 5).
  c.itlb = TlbGeometry{.entries = 32, .associativity = 1};
  c.dtlb = TlbGeometry{.entries = 32, .associativity = 1};
  c.l2tlb = TlbGeometry{.entries = 128, .associativity = 2};

  c.bp = BranchPredictorGeometry{.btb_entries = 512,
                                 .btb_associativity = 2,
                                 .pht_entries = 4096,
                                 .history_bits = 8,
                                 .mispredict_penalty = 8};
  // Cortex A9's prefetcher is conservative and is disabled with the BP in
  // the full-flush scenario; the paper observes no residual Arm channel, so
  // the model gives it no cross-domain stream retention.
  c.prefetcher = PrefetcherGeometry{.data_slots = 0,
                                    .instruction_slots = 0,
                                    .confidence_threshold = 2,
                                    .prefetch_degree = 0,
                                    .credits_on_train = 0,
                                    .interference_cycles = 0,
                                    .max_stale_issues_per_miss = 0};
  c.lat = Latencies{.base_op = 1,
                    .l1_hit = 4,
                    .l2_hit = 8,  // unused (no private L2)
                    .llc_hit = 25,
                    .dram = 150,
                    .dram_stream = 35,
                    .writeback = 2,
                    .l2_tlb_hit = 6,
                    .flush_per_line = 6,
                    .flush_dirty_extra = 10,
                    .tlb_flush = 80,
                    .bp_flush = 120};

  c.irq_arch = IrqArch::kArmSimple;
  c.ram_bytes = std::uint64_t{1} * 1024 * 1024 * 1024;
  c.has_architected_l1_flush = true;
  return c;
}

Machine::Machine(const MachineConfig& config)
    : config_(config),
      llc_(std::make_unique<SetAssociativeCache>("LLC", config.llc, Indexing::kPhysical)),
      irqc_(config.irq_arch, config.irq_lines) {
  for (std::size_t i = 0; i < config_.num_cores; ++i) {
    cores_.push_back(std::make_unique<Core>(static_cast<CoreId>(i), this));
  }
  device_timers_.reserve(config_.device_timers);
  for (std::size_t i = 0; i < config_.device_timers; ++i) {
    // Device timer i raises IRQ line i+1 (line 0 is reserved).
    device_timers_.emplace_back(static_cast<IrqLine>(i + 1));
  }
}

void Machine::PollDeviceTimers(Cycles now) {
  for (OneShotTimer& t : device_timers_) {
    if (t.Expired(now)) {
      irqc_.Raise(t.irq_line());
      t.Clear();
    }
  }
}

std::uint64_t Machine::StateDigest() const {
  std::uint64_t h = kDigestSeed;
  llc_->DigestState(h);
  for (const auto& core : cores_) {
    core->DigestState(h);
  }
  return h;
}

void Machine::BackInvalidateLine(PAddr line_paddr) {
  for (std::unique_ptr<Core>& core : cores_) {
    core->BackInvalidateLine(line_paddr);
  }
}

}  // namespace tp::hw
