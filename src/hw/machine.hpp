// Whole-platform assembly: cores, shared LLC, interrupt controller, device
// timers, and a physical-memory extent. Presets encode the two evaluation
// platforms of paper Table 1.
#ifndef TP_HW_MACHINE_HPP_
#define TP_HW_MACHINE_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/cache.hpp"
#include "hw/core.hpp"
#include "hw/interrupt_controller.hpp"
#include "hw/timer.hpp"
#include "hw/tlb.hpp"
#include "hw/types.hpp"

namespace tp::hw {

enum class Arch {
  kX86,
  kArm,
};

struct MachineConfig {
  std::string name;
  Arch arch = Arch::kX86;
  double clock_ghz = 1.0;
  std::size_t num_cores = 4;

  CacheGeometry l1i;
  CacheGeometry l1d;
  bool has_private_l2 = false;
  CacheGeometry l2;   // private, per core (x86 only)
  CacheGeometry llc;  // shared last-level cache (x86 L3 / Arm L2)

  TlbGeometry itlb;
  TlbGeometry dtlb;
  TlbGeometry l2tlb;

  BranchPredictorGeometry bp;
  PrefetcherGeometry prefetcher;
  Latencies lat;

  IrqArch irq_arch = IrqArch::kX86Hierarchical;
  std::size_t irq_lines = 64;
  std::size_t device_timers = 4;  // user-assignable one-shot timers

  std::uint64_t ram_bytes = std::uint64_t{1} << 30;

  // Arm has architected L1 set/way flushes (DCCISW); Haswell-era x86 does
  // not, forcing the "manual" flush of paper §4.3.
  bool has_architected_l1_flush = false;

  // Core i7-4770 per Table 1 (8 MiB 16-way LLC over 4 slices -> 32 colours,
  // 256 KiB 8-way private L2 -> 8 colours).
  static MachineConfig Haswell(std::size_t cores = 4);
  // i.MX6Q Sabre per Table 1 (1 MiB 16-way shared L2-as-LLC -> 16 colours).
  static MachineConfig Sabre(std::size_t cores = 4);
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  Core& core(std::size_t i) { return *cores_.at(i); }
  std::size_t num_cores() const { return cores_.size(); }
  SetAssociativeCache& llc() { return *llc_; }
  InterruptController& irq_controller() { return irqc_; }

  // Device timers raise their IRQ line when polled past their deadline.
  OneShotTimer& device_timer(std::size_t i) { return device_timers_.at(i); }
  std::size_t num_device_timers() const { return device_timers_.size(); }
  // Raises IRQs for expired device timers, judged against `now`.
  void PollDeviceTimers(Cycles now);

  // Inclusive-LLC back-invalidation: drop the line from every core's
  // private caches (it was evicted from the LLC).
  void BackInvalidateLine(PAddr line_paddr);

  double CyclesToMicros(Cycles c) const {
    return static_cast<double>(c) / (config_.clock_ghz * 1000.0);
  }
  Cycles MicrosToCycles(double us) const {
    return static_cast<Cycles>(us * config_.clock_ghz * 1000.0);
  }

  const MachineConfig& config() const { return config_; }

  // Monotone count of cache/TLB-mutating episodes anywhere on the machine:
  // every live access run and every flush bumps it. Each core's batch-replay
  // memo validates against it — an unchanged generation proves no cache or
  // TLB was touched since the memo was recorded, so the machine still sits
  // at that batch's fixpoint state. Replays mutate nothing and therefore do
  // not bump it. Branch-predictor state is deliberately outside the
  // generation: batches never touch it.
  std::uint64_t state_gen() const { return state_gen_; }
  void BumpStateGen() { ++state_gen_; }

  // Digest of every structure a batched access can read or write: the
  // shared LLC plus each core's caches, TLBs, prefetcher and DRAM row memo.
  // Two identical digests mean identical batch-visible machine state; the
  // replay memo uses this to prove a re-run batch sits at its fixpoint.
  std::uint64_t StateDigest() const;

 private:
  MachineConfig config_;
  std::uint64_t state_gen_ = 0;
  std::unique_ptr<SetAssociativeCache> llc_;
  InterruptController irqc_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<OneShotTimer> device_timers_;
};

}  // namespace tp::hw

#endif  // TP_HW_MACHINE_HPP_
