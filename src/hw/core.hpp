// A simulated CPU core: private caches, TLBs, branch predictor, stream
// prefetcher, cycle counter and preemption timer, connected to the shared
// LLC and interrupt controller of its Machine.
//
// Every memory operation runs the full path — TLB lookup, page walk through
// the data caches on TLB miss, then L1 → (private L2) → LLC → DRAM — and
// advances the core's cycle counter by the resulting latency. All
// microarchitectural state mutations are explicit, which is what makes
// timing channels (and their mitigations) observable in this model.
#ifndef TP_HW_CORE_HPP_
#define TP_HW_CORE_HPP_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "faults/fault.hpp"
#include "hw/branch_predictor.hpp"
#include "hw/cache.hpp"
#include "hw/perf_counter.hpp"
#include "hw/prefetcher.hpp"
#include "hw/timer.hpp"
#include "hw/tlb.hpp"
#include "hw/translation.hpp"
#include "hw/types.hpp"

namespace tp::hw {

class Machine;

enum class AccessKind {
  kRead,
  kWrite,
  kFetch,
};

// One element of a batched memory-access run (Core::AccessBatch). Batches
// replay their operations in element order, so a batch is bit-identical to
// the equivalent sequence of Access() calls — it only removes the
// per-access dispatch through the user-API layer.
struct MemOp {
  VAddr va = 0;
  AccessKind kind = AccessKind::kRead;
};

struct Latencies {
  Cycles base_op = 1;
  Cycles l1_hit = 4;
  Cycles l2_hit = 12;
  Cycles llc_hit = 40;
  Cycles dram = 200;
  // Sequential (next-line) misses hit the open DRAM row / burst transfer.
  Cycles dram_stream = 60;
  Cycles writeback = 2;       // buffered write-back on the demand path
  Cycles l2_tlb_hit = 8;
  Cycles flush_per_line = 6;  // architected set/way flush, per line
  Cycles flush_dirty_extra = 10;
  Cycles tlb_flush = 100;
  Cycles bp_flush = 200;
};

// Process-wide tally of simulated work, accumulated from each core's
// perf counters when the core is destroyed — no per-access cost. The
// tp_bench --profile mode reads snapshot deltas around each channel to
// report host simulation throughput (accesses/second).
struct SimTally {
  std::uint64_t accesses = 0;  // reads + writes + fetches
  std::uint64_t branches = 0;
};
SimTally SimTallySnapshot();

class Core {
 public:
  Core(CoreId id, Machine* machine);
  ~Core();

  // --- context (set by the kernel on thread/kernel switch) ---------------

  // `user_ctx` translates user addresses, `kernel_ctx` kernel-window
  // addresses. `kernel_global` marks kernel TLB entries global (only the
  // baseline single-kernel configuration may do this; clone-capable kernels
  // have per-image mappings — the root of the Arm IPC overhead in Table 5).
  void SetUserContext(const TranslationContext* user_ctx);
  void SetKernelContext(const TranslationContext* kernel_ctx, bool kernel_global);
  // Tags prefetcher training so leftover streams from another domain are
  // recognisably stale. The kernel passes the current domain/kernel id.
  void SetDomainTag(std::uint16_t tag) {
    domain_tag_ = tag;
    if (taint_on_) {
      SetTaintOwner(tag);
    }
  }
  std::uint16_t domain_tag() const { return domain_tag_; }

  // --- taint tracking (no-ops unless enabled at construction) --------------

  // Owner stamped on every structure this core touches. Normally follows
  // the domain tag; the kernel sets 0 (neutral) around the schedule-driven
  // switch sequence. Kept separate from the domain tag so prefetcher
  // training owners — simulated behaviour — never change with taint mode.
  void SetTaintOwner(std::uint16_t owner);
  std::uint16_t taint_owner() const { return taint_owner_; }
  // Physical ranges whose contents are taint-neutral by construction: the
  // §4.1 deterministically-prefetched shared region and the x86 manual
  // flush buffers.
  void AddTaintNeutralRange(PAddr base, std::size_t bytes);
  // Address-space half (0 user, 1 kernel) whose translation memo still
  // holds a stale entry (wrong context or generation), or -1 when clean.
  int StaleTranslationMemo() const;

  // --- execution ----------------------------------------------------------

  // Performs one memory operation, advancing the cycle counter. Throws
  // std::runtime_error on a translation fault.
  Cycles Access(VAddr vaddr, AccessKind kind);
  // Batched runs: one call into the memory system for a whole probe or
  // traversal loop. Ops execute strictly in order; the total cost returned
  // (and every state mutation) equals the per-call loop's.
  Cycles AccessBatch(std::span<const VAddr> vaddrs, AccessKind kind);
  Cycles AccessBatch(std::span<const MemOp> ops);
  // Branch at `pc` to `target`; cost depends on predictor state.
  Cycles Branch(VAddr pc, VAddr target, bool taken, bool conditional);
  // Pure compute / pipeline time.
  void AdvanceCycles(Cycles n) { cycles_ += n; }

  Cycles now() const { return cycles_; }

  // --- architected flush operations (used by tp::core flush drivers) ------

  Cycles ArchFlushL1D();      // Arm DCCISW loop; unavailable trap on x86
  Cycles InvalidateL1I();     // ICIALLU / implicit part of manual flush
  Cycles FlushPrivateL2();    // set/way flush of the private L2, if present
  Cycles FlushTlbAll();       // TLBIALL / invpcid all-context
  Cycles FlushTlbNonGlobal();
  Cycles FlushBranchPredictor();  // BPIALL / IBC barrier
  // wbinvd-style: L1s + private L2 + this core's view of the shared LLC.
  // `include_llc=false` is the flush.llc fault-injection path: the private
  // levels flush but the shared LLC keeps (and keeps charging nothing for)
  // its lines.
  Cycles FullCacheFlush(bool include_llc = true);

  // --- component access ----------------------------------------------------

  SetAssociativeCache& l1i() { return *l1i_; }
  SetAssociativeCache& l1d() { return *l1d_; }
  SetAssociativeCache* l2() { return l2_.get(); }
  Tlb& itlb() { return *itlb_; }
  Tlb& dtlb() { return *dtlb_; }
  Tlb& l2tlb() { return *l2tlb_; }
  BranchPredictor& branch_predictor() { return *bp_; }
  StreamPrefetcher& prefetcher() { return *prefetcher_; }
  OneShotTimer& preemption_timer() { return preemption_timer_; }
  PerfCounters& counters() { return counters_; }
  const PerfCounters& counters() const { return counters_; }
  CoreId id() const { return id_; }
  Machine& machine() { return *machine_; }
  const Latencies& lat() const;

  // Invalidate a line in all private caches (inclusive-LLC back-invalidate).
  void BackInvalidateLine(PAddr line_paddr);

  // Folds this core's batch-reachable state (caches, TLBs, prefetcher, DRAM
  // row memo) into a machine state digest (see Machine::StateDigest).
  void DigestState(std::uint64_t& h) const;

 private:
  const TranslationContext* ContextFor(VAddr vaddr) const;
  // TLB + walk; returns translation, charging cost into `cost`.
  Translation TranslateCharged(VAddr vaddr, bool instruction, Cycles& cost);
  // L1 -> L2 -> LLC -> DRAM; returns latency.
  Cycles CachePath(VAddr vaddr, PAddr paddr, AccessKind kind);
  // Demand access used by the page walker (physical, data side).
  Cycles WalkerRead(PAddr paddr);
  // Set/way write-back + invalidate of one cache: every line pays the
  // per-line walk and every dirty line its write-back on top. Returns the
  // cycles without charging them.
  Cycles FlushCache(SetAssociativeCache& cache);

  CoreId id_;
  Machine* machine_;
  std::unique_ptr<SetAssociativeCache> l1i_;
  std::unique_ptr<SetAssociativeCache> l1d_;
  std::unique_ptr<SetAssociativeCache> l2_;  // null on Arm (shared L2 is the LLC)
  std::unique_ptr<Tlb> itlb_;
  std::unique_ptr<Tlb> dtlb_;
  std::unique_ptr<Tlb> l2tlb_;
  std::unique_ptr<BranchPredictor> bp_;
  std::unique_ptr<StreamPrefetcher> prefetcher_;
  OneShotTimer preemption_timer_;
  PerfCounters counters_;

  bool TaintNeutral(PAddr paddr) const {
    for (const auto& range : taint_neutral_) {
      if (paddr >= range.first && paddr < range.second) {
        return true;
      }
    }
    return false;
  }

  const TranslationContext* user_ctx_ = nullptr;
  const TranslationContext* kernel_ctx_ = nullptr;
  bool kernel_global_ = true;
  std::uint16_t domain_tag_ = 0;
  bool taint_on_ = false;
  std::uint16_t taint_owner_ = 0;
  std::vector<std::pair<PAddr, PAddr>> taint_neutral_;  // [base, end)
  Cycles cycles_ = 0;
  std::uint64_t last_miss_line_ = ~std::uint64_t{0};
  std::vector<PAddr> walk_scratch_;

  // One-page translation memo per address-space half, keyed on the context
  // and its generation counter: purely a host-side shortcut past the
  // virtual Translate() call (the simulated TLB lookup still runs and is
  // charged above). Invalidated by context switches and generation bumps.
  struct TranslationMemo {
    const TranslationContext* ctx = nullptr;
    std::uint64_t vpn = ~std::uint64_t{0};
    std::uint64_t gen = 0;
    Translation tr;
  };
  TranslationMemo trans_memo_[2];  // [user, kernel]
  const std::uint64_t* user_gen_ = &kStaticTranslationGeneration;
  const std::uint64_t* kernel_gen_ = &kStaticTranslationGeneration;

  // Counter movement of one steady-state batch run, applied wholesale when
  // the run is replayed instead of re-simulated: the perf counters a
  // batched access can advance besides the read/write/fetch counts (which
  // the batch adds up front), and the cycles. State changes need no record
  // — a replay only fires at a proven fixpoint, where the live run would
  // leave every tag, age, dirty bit and taint stamp exactly as it found
  // them.
  struct ReplayDeltas {
    std::uint64_t l1d_misses = 0;
    std::uint64_t l1i_misses = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t tlb_misses = 0;
    std::uint64_t page_walks = 0;
    Cycles total = 0;
  };
  // Deltas of a live run from the counters it started at.
  ReplayDeltas DiffStats(const PerfCounters& before, Cycles total) const;
  void ApplyReplay(const ReplayDeltas& d);

  // Batch replay memo (see AccessBatch): a batch re-run from the exact
  // machine state it last left behind is at a fixpoint — it repeats the
  // same hits and misses, rebuilds the same tags, ages and taint stamps,
  // and charges the same cycles — so its recorded deltas can be applied in
  // place of the per-op loop. Two proofs establish the fixpoint: an
  // all-hit run is one analytically (no fills, final LRU ages a pure
  // function of the touch order, dirty/taint writes idempotent), and any
  // batch is one once two consecutive live runs end in the same
  // Machine::StateDigest. The fixpoint state is recognised by the machine
  // generation still matching state_gen: nothing touched a cache or TLB
  // since the recorded run. One memo per core suffices — every live run on
  // any core bumps the generation, so only the core's latest live batch
  // can ever match again.
  // Everything besides machine state that a batch run depends on: the op
  // list (identity and content), the translation contexts and their
  // generations, and the owners and global bit the run stamps on its fills.
  struct BatchKey {
    const VAddr* data = nullptr;
    std::size_t size = 0;
    AccessKind kind = AccessKind::kRead;
    std::uint64_t content_hash = 0;
    const TranslationContext* user_ctx = nullptr;
    const TranslationContext* kernel_ctx = nullptr;
    std::uint64_t user_gen = 0;
    std::uint64_t kernel_gen = 0;
    std::uint16_t taint_owner = 0;
    std::uint16_t domain_tag = 0;   // prefetcher training owner on misses
    bool kernel_global = true;      // global bit on kernel TLB inserts
    bool operator==(const BatchKey&) const = default;
  };
  struct BatchMemo {
    BatchKey key;
    std::uint64_t state_gen = 0;    // machine generation right after the run
    std::uint64_t digest_post = 0;  // StateDigest after the run (0 = none)
    bool verified = false;          // fixpoint proven; replay allowed
    ReplayDeltas deltas;
  };
  BatchMemo batch_memo_;
  // Latched at construction: replay stands down whenever fault injection is
  // active, so every site still sees every eligible event (a FireOnce
  // ordinal must not be starved by an elided run).
  bool batch_replay_on_ = false;

  // memo.stale fault site: when armed, context switches keep the memo and
  // the Nth cross-context lookup of a memoised page reuses the stale entry.
  faults::FaultSite fault_memo_stale_;
};

}  // namespace tp::hw

#endif  // TP_HW_CORE_HPP_
