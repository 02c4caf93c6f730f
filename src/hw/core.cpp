#include "hw/core.hpp"

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "hw/digest.hpp"
#include "hw/machine.hpp"

namespace tp::hw {

namespace {
std::atomic<std::uint64_t> g_sim_accesses{0};
std::atomic<std::uint64_t> g_sim_branches{0};

// Same convention as TP_QUICK / TP_TAINT: unset, "" and "0" mean off.
bool EnvFlagSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}
}  // namespace

SimTally SimTallySnapshot() {
  return SimTally{g_sim_accesses.load(std::memory_order_relaxed),
                  g_sim_branches.load(std::memory_order_relaxed)};
}

Core::~Core() {
  g_sim_accesses.fetch_add(counters_.reads + counters_.writes + counters_.fetches,
                           std::memory_order_relaxed);
  g_sim_branches.fetch_add(counters_.branches, std::memory_order_relaxed);
}

Core::Core(CoreId id, Machine* machine) : id_(id), machine_(machine) {
  const MachineConfig& cfg = machine->config();
  l1i_ = std::make_unique<SetAssociativeCache>("L1-I", cfg.l1i, Indexing::kVirtual);
  l1d_ = std::make_unique<SetAssociativeCache>("L1-D", cfg.l1d, Indexing::kVirtual);
  if (cfg.has_private_l2) {
    l2_ = std::make_unique<SetAssociativeCache>("L2", cfg.l2, Indexing::kPhysical);
  }
  itlb_ = std::make_unique<Tlb>("I-TLB", cfg.itlb);
  dtlb_ = std::make_unique<Tlb>("D-TLB", cfg.dtlb);
  l2tlb_ = std::make_unique<Tlb>("L2-TLB", cfg.l2tlb);
  bp_ = std::make_unique<BranchPredictor>(cfg.bp);
  prefetcher_ = std::make_unique<StreamPrefetcher>(cfg.prefetcher);
  taint_on_ = TaintTrackingEnabled();
  fault_memo_stale_ = faults::FaultSite::For("memo.stale");
  // Replay elides whole runs, which would starve FireOnce event counts on
  // any armed site, so it stands down for the entire process under fault
  // injection (same construct-time pattern as the sites themselves).
  // TP_NO_REPLAY forces every batch down the live path — the A/B switch
  // for localising a suspected replay divergence (results must be
  // bit-identical either way; see tests/hw/batch_replay_test.cpp).
  batch_replay_on_ = !faults::FaultInjectionEnabled() && !EnvFlagSet("TP_NO_REPLAY");
}

void Core::SetTaintOwner(std::uint16_t owner) {
  taint_owner_ = owner;
  if (!taint_on_) {
    return;
  }
  itlb_->SetTaintOwner(owner);
  dtlb_->SetTaintOwner(owner);
  l2tlb_->SetTaintOwner(owner);
  bp_->SetTaintOwner(owner);
}

void Core::AddTaintNeutralRange(PAddr base, std::size_t bytes) {
  if (bytes > 0) {
    taint_neutral_.emplace_back(base, base + bytes);
  }
}

int Core::StaleTranslationMemo() const {
  const TranslationContext* current[2] = {user_ctx_, kernel_ctx_};
  const std::uint64_t* gens[2] = {user_gen_, kernel_gen_};
  for (int half = 0; half < 2; ++half) {
    const TranslationMemo& memo = trans_memo_[half];
    if (memo.ctx != nullptr && (memo.ctx != current[half] || memo.gen != *gens[half])) {
      return half;
    }
  }
  return -1;
}

const Latencies& Core::lat() const { return machine_->config().lat; }

void InstallFlatContext(Core& core, const FlatTranslationContext& ctx, bool kernel_global) {
  core.SetUserContext(&ctx);
  core.SetKernelContext(&ctx, kernel_global);
}

void Core::SetUserContext(const TranslationContext* user_ctx) {
  user_ctx_ = user_ctx;
  user_gen_ = user_ctx != nullptr ? user_ctx->generation() : &kStaticTranslationGeneration;
  if (!fault_memo_stale_.armed()) {
    trans_memo_[0] = TranslationMemo{};
  }
}

void Core::SetKernelContext(const TranslationContext* kernel_ctx, bool kernel_global) {
  kernel_ctx_ = kernel_ctx;
  kernel_global_ = kernel_global;
  kernel_gen_ =
      kernel_ctx != nullptr ? kernel_ctx->generation() : &kStaticTranslationGeneration;
  if (!fault_memo_stale_.armed()) {
    trans_memo_[1] = TranslationMemo{};
  }
}

const TranslationContext* Core::ContextFor(VAddr vaddr) const {
  return IsKernelAddress(vaddr) ? kernel_ctx_ : user_ctx_;
}

Cycles Core::WalkerRead(PAddr paddr) {
  // Page-table entry read: physical, data-side, no recursive translation.
  return CachePath(KernelVaddrFor(paddr), paddr, AccessKind::kRead);
}

Translation Core::TranslateCharged(VAddr vaddr, bool instruction, Cycles& cost) {
  const TranslationContext* ctx = ContextFor(vaddr);
  if (ctx == nullptr) {
    std::ostringstream oss;
    oss << "core " << id_ << ": no translation context for vaddr 0x" << std::hex << vaddr;
    throw std::runtime_error(oss.str());
  }

  bool kernel_addr = IsKernelAddress(vaddr);
  bool global = kernel_addr && kernel_global_;
  // The kernel window is mapped into every user address space, so without
  // the global bit its TLB entries are tagged (and duplicated) per user
  // ASID — the pressure that makes clone-capable kernels expensive on the
  // 2-way Arm L2 TLB (paper Table 5).
  Asid asid = (kernel_addr && user_ctx_ != nullptr) ? user_ctx_->asid() : ctx->asid();
  std::uint64_t vpn = PageNumber(vaddr);

  Tlb& tlb = instruction ? *itlb_ : *dtlb_;
  if (!tlb.Lookup(vpn, asid)) {
    ++counters_.tlb_misses;
    if (l2tlb_->Lookup(vpn, asid)) {
      cost += lat().l2_tlb_hit;
    } else {
      ++counters_.page_walks;
      walk_scratch_.clear();
      ctx->WalkPath(vaddr, walk_scratch_);
      for (PAddr pte : walk_scratch_) {
        cost += WalkerRead(pte);
      }
      l2tlb_->Insert(vpn, asid, global);
    }
    tlb.Insert(vpn, asid, global);
  }

  // Host-side memo of the last translated page: Translate() is a virtual
  // call into a map lookup, paid per access otherwise. The memo key covers
  // the context identity and its generation, so a hit returns exactly what
  // Translate() would.
  TranslationMemo& memo = trans_memo_[kernel_addr ? 1 : 0];
  const std::uint64_t gen = *(kernel_addr ? kernel_gen_ : user_gen_);
  if (memo.ctx == ctx && memo.vpn == vpn && memo.gen == gen) {
    return memo.tr;
  }
  if (fault_memo_stale_.armed() && memo.ctx != nullptr && memo.vpn == vpn &&
      fault_memo_stale_.FireOnce()) {
    return memo.tr;  // injected fault: reuse the stale cross-context entry
  }
  std::optional<Translation> tr = ctx->Translate(vaddr);
  if (!tr.has_value()) {
    std::ostringstream oss;
    oss << "core " << id_ << ": translation fault at vaddr 0x" << std::hex << vaddr;
    throw std::runtime_error(oss.str());
  }
  memo = TranslationMemo{ctx, vpn, gen, *tr};
  return *tr;
}

Cycles Core::CachePath(VAddr vaddr, PAddr paddr, AccessKind kind) {
  const Latencies& L = lat();
  bool instruction = kind == AccessKind::kFetch;
  bool write = kind == AccessKind::kWrite;
  SetAssociativeCache& l1 = instruction ? *l1i_ : *l1d_;

  if (taint_on_) {
    const std::uint16_t owner = TaintNeutral(paddr) ? 0 : taint_owner_;
    l1.SetTaintOwner(owner);
    if (l2_ != nullptr) {
      l2_->SetTaintOwner(owner);
    }
    machine_->llc().SetTaintOwner(owner);
  }

  Cycles cost = L.l1_hit;
  AccessResult r1 = l1.Access(vaddr, paddr, write);
  if (r1.hit) {
    return cost;
  }
  if (instruction) {
    ++counters_.l1i_misses;
  } else {
    ++counters_.l1d_misses;
  }
  if (r1.writeback) {
    cost += L.writeback;
    // Victim write-back lands in the level below (timing only; the victim's
    // address is not tracked through — the write buffer hides it).
  }

  // L2 and the LLC are only ever filled clean (every access and insert
  // below passes write=false), so they never write back a victim.
  SetAssociativeCache& llc = machine_->llc();
  bool l2_hit = false;
  if (l2_ != nullptr) {
    AccessResult r2 = l2_->Access(vaddr, paddr, false);
    if (r2.hit) {
      cost += L.l2_hit;
      l2_hit = true;
    } else {
      ++counters_.l2_misses;
    }
  }

  if (!l2_hit) {
    AccessResult r3 = llc.Access(vaddr, paddr, false);
    if (r3.evicted_valid) {
      machine_->BackInvalidateLine(r3.evicted_line_addr * llc.geometry().line_size);
    }
    if (r3.hit) {
      cost += L.llc_hit;
    } else {
      ++counters_.llc_misses;
      std::uint64_t miss_line = llc.LineOf(paddr);
      // Row-buffer/burst locality: consecutive-line misses stream.
      cost += (miss_line == last_miss_line_ + 1) ? L.dram_stream : L.dram;
      last_miss_line_ = miss_line;

      // Stream prefetcher trains on demand misses at the level below L1.
      // Behaviour owner is always the domain tag; the taint owner follows
      // the same neutral masking as the cache levels, so streams trained by
      // the deterministic tick sequence stamp neutral fills instead of
      // fabricating foreign residue in another domain's partition.
      PrefetchOutcome out = prefetcher_->OnDemandMiss(
          miss_line, domain_tag_, instruction, TaintNeutral(paddr) ? 0 : taint_owner_);
      cost += out.interference;
      for (std::size_t i = 0; i < out.fills.size(); ++i) {
        const std::uint64_t fill_line = out.fills[i];
        PAddr fill_paddr = fill_line * llc.geometry().line_size;
        if (taint_on_) {
          // A prefetch fill belongs to the stream that issued it — a stale
          // stream keeps stamping its old domain after the switch (§5.3.2).
          const std::uint16_t fill_owner =
              TaintNeutral(fill_paddr) ? 0 : out.fills.owner(i);
          llc.SetTaintOwner(fill_owner);
          if (l2_ != nullptr) {
            l2_->SetTaintOwner(fill_owner);
          }
        }
        AccessResult fr = llc.Access(KernelVaddrFor(fill_paddr), fill_paddr, false);
        if (fr.evicted_valid) {
          machine_->BackInvalidateLine(fr.evicted_line_addr * llc.geometry().line_size);
        }
        if (l2_ != nullptr) {
          l2_->Insert(KernelVaddrFor(fill_paddr), fill_paddr, false);
        }
      }
    }
  }
  return cost;
}

namespace {

// Content fingerprint for the batch-replay memo (FNV-1a over the address
// words): senders advance their traces in place, so pointer+size identity
// alone cannot prove the list is unchanged.
std::uint64_t HashBatch(std::span<const VAddr> vaddrs) {
  std::uint64_t h = 1469598103934665603ull;
  for (VAddr va : vaddrs) {
    h ^= va;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Cycles Core::Access(VAddr vaddr, AccessKind kind) {
  machine_->BumpStateGen();
  Cycles cost = lat().base_op;
  switch (kind) {
    case AccessKind::kRead:
      ++counters_.reads;
      break;
    case AccessKind::kWrite:
      ++counters_.writes;
      break;
    case AccessKind::kFetch:
      ++counters_.fetches;
      break;
  }
  Translation tr = TranslateCharged(vaddr, kind == AccessKind::kFetch, cost);
  PAddr paddr = tr.paddr + PageOffset(vaddr);
  cost += CachePath(vaddr, paddr, kind);
  cycles_ += cost;
  return cost;
}

// The batch loops hoist the per-op dispatch out of Access(): perf counters
// bulk-increment once, the base-op latency loads once, and the cycle counter
// updates once at the end. Nothing inside TranslateCharged/CachePath reads
// cycles_ or the counters mid-run, so every simulated state mutation and the
// total cost are bit-identical to the per-call loop.
//
// On top of that sits the replay memo. A batch re-run from the exact state
// it last left the machine in is at a fixpoint: it repeats the same hits
// and misses, rebuilds the same tags, LRU ages and taint stamps, and
// charges the same cycles — so the recorded counter deltas can be applied
// in place of the per-op loop. Two proofs establish the fixpoint. An
// all-hit run is one analytically: residency is what makes an op hit
// (tags, not ages), final LRU ages depend only on the touch order, and
// dirty bits and taint stamps are idempotent writes of the same values.
// Any other batch — e.g. a probe streaming an eviction set much larger
// than the L1 — is proven once two consecutive live runs end in the same
// machine state digest: digest(S2) == digest(S3) with S3 = B(S2) means
// B(S3) = S3, and the third run's deltas are the steady-state deltas every
// later run repeats. The machine state generation (bumped by every live
// access run and every flush, machine-wide) guarantees nothing touched a
// cache or TLB between the runs being compared, so only the core's latest
// live batch is ever a candidate and one memo per core holds it. The
// prime/probe/traverse inner loops of the attacks re-issue the same trace
// many times per timeslice, which is where the sweep's wall time goes.
Cycles Core::AccessBatch(std::span<const VAddr> vaddrs, AccessKind kind) {
  if (vaddrs.empty()) {
    return 0;
  }
  switch (kind) {
    case AccessKind::kRead:
      counters_.reads += vaddrs.size();
      break;
    case AccessKind::kWrite:
      counters_.writes += vaddrs.size();
      break;
    case AccessKind::kFetch:
      counters_.fetches += vaddrs.size();
      break;
  }
  const bool instruction = kind == AccessKind::kFetch;
  BatchMemo& memo = batch_memo_;
  BatchKey key;
  // The machine still sits at the memo's recorded post-state: this run is
  // a convergence candidate (or, once verified, a replay).
  bool state_known = false;
  if (batch_replay_on_) {
    key = BatchKey{.data = vaddrs.data(),
                   .size = vaddrs.size(),
                   .kind = kind,
                   .content_hash = HashBatch(vaddrs),
                   .user_ctx = user_ctx_,
                   .kernel_ctx = kernel_ctx_,
                   .user_gen = *user_gen_,
                   .kernel_gen = *kernel_gen_,
                   .taint_owner = taint_owner_,
                   .domain_tag = domain_tag_,
                   .kernel_global = kernel_global_};
    if (memo.state_gen == machine_->state_gen() && memo.key == key) {
      if (memo.verified) {
        ApplyReplay(memo.deltas);
        return memo.deltas.total;
      }
      state_known = true;
    }
  }
  machine_->BumpStateGen();
  const PerfCounters before = counters_;
  const Cycles base = lat().base_op;
  Cycles total = 0;
  for (VAddr va : vaddrs) {
    Cycles cost = base;
    Translation tr = TranslateCharged(va, instruction, cost);
    total += cost + CachePath(va, tr.paddr + PageOffset(va), kind);
  }
  cycles_ += total;
  if (!batch_replay_on_) {
    return total;
  }
  if (!state_known) {
    memo = BatchMemo{.key = key};
  }
  memo.deltas = DiffStats(before, total);
  const ReplayDeltas& d = memo.deltas;
  if (d.tlb_misses + d.l1i_misses + d.l1d_misses == 0) {
    // All-hit run: fixpoint by the analytic argument, no digest needed (no
    // miss anywhere implies no fill, insert, writeback, walk or prefetch
    // train; promotes and dirty/taint writes are idempotent).
    memo.verified = true;
  } else if (state_known) {
    // Only convergence candidates (known pre-state) digest: the batch
    // demonstrably re-runs, and one fold can unlock a whole timeslice of
    // replays. First sightings never digest — most batches are not re-run
    // from their own post-state, and the fold would be pure cost.
    const std::uint64_t digest = machine_->StateDigest();
    memo.verified = memo.digest_post != 0 && memo.digest_post == digest;
    memo.digest_post = digest;
  }
  memo.state_gen = machine_->state_gen();
  return total;
}

Core::ReplayDeltas Core::DiffStats(const PerfCounters& before, Cycles total) const {
  return ReplayDeltas{.l1d_misses = counters_.l1d_misses - before.l1d_misses,
                      .l1i_misses = counters_.l1i_misses - before.l1i_misses,
                      .l2_misses = counters_.l2_misses - before.l2_misses,
                      .llc_misses = counters_.llc_misses - before.llc_misses,
                      .tlb_misses = counters_.tlb_misses - before.tlb_misses,
                      .page_walks = counters_.page_walks - before.page_walks,
                      .total = total};
}

void Core::ApplyReplay(const ReplayDeltas& d) {
  counters_.l1d_misses += d.l1d_misses;
  counters_.l1i_misses += d.l1i_misses;
  counters_.l2_misses += d.l2_misses;
  counters_.llc_misses += d.llc_misses;
  counters_.tlb_misses += d.tlb_misses;
  counters_.page_walks += d.page_walks;
  cycles_ += d.total;
}

void Core::DigestState(std::uint64_t& h) const {
  l1i_->DigestState(h);
  l1d_->DigestState(h);
  if (l2_ != nullptr) {
    l2_->DigestState(h);
  }
  itlb_->DigestState(h);
  dtlb_->DigestState(h);
  l2tlb_->DigestState(h);
  prefetcher_->DigestState(h);
  DigestWord(h, last_miss_line_);
}

Cycles Core::AccessBatch(std::span<const MemOp> ops) {
  if (ops.empty()) {
    return 0;
  }
  machine_->BumpStateGen();
  const Cycles base = lat().base_op;
  Cycles total = 0;
  for (const MemOp& op : ops) {
    switch (op.kind) {
      case AccessKind::kRead:
        ++counters_.reads;
        break;
      case AccessKind::kWrite:
        ++counters_.writes;
        break;
      case AccessKind::kFetch:
        ++counters_.fetches;
        break;
    }
    Cycles cost = base;
    Translation tr = TranslateCharged(op.va, op.kind == AccessKind::kFetch, cost);
    total += cost + CachePath(op.va, tr.paddr + PageOffset(op.va), op.kind);
  }
  cycles_ += total;
  return total;
}

Cycles Core::Branch(VAddr pc, VAddr target, bool taken, bool conditional) {
  ++counters_.branches;
  BranchResult r = bp_->Branch(pc, target, taken, conditional);
  Cycles cost = lat().base_op + r.penalty;
  if (r.mispredicted) {
    ++counters_.mispredicts;
  }
  cycles_ += cost;
  return cost;
}

Cycles Core::ArchFlushL1D() {
  if (!machine_->config().has_architected_l1_flush) {
    throw std::logic_error("architected L1-D flush not available on this platform");
  }
  machine_->BumpStateGen();
  Cycles cost = FlushCache(*l1d_);
  cycles_ += cost;
  return cost;
}

Cycles Core::InvalidateL1I() {
  machine_->BumpStateGen();
  std::size_t lines = l1i_->geometry().TotalLines();
  l1i_->InvalidateAll();
  Cycles cost = static_cast<Cycles>(lines) * 1;  // invalidate-only, no write-back
  cycles_ += cost;
  return cost;
}

Cycles Core::FlushPrivateL2() {
  if (l2_ == nullptr) {
    return 0;
  }
  machine_->BumpStateGen();
  Cycles cost = FlushCache(*l2_);
  cycles_ += cost;
  return cost;
}

Cycles Core::FlushTlbAll() {
  machine_->BumpStateGen();
  itlb_->FlushAll();
  dtlb_->FlushAll();
  l2tlb_->FlushAll();
  Cycles cost = lat().tlb_flush;
  cycles_ += cost;
  return cost;
}

Cycles Core::FlushTlbNonGlobal() {
  machine_->BumpStateGen();
  itlb_->FlushNonGlobal();
  dtlb_->FlushNonGlobal();
  l2tlb_->FlushNonGlobal();
  Cycles cost = lat().tlb_flush;
  cycles_ += cost;
  return cost;
}

Cycles Core::FlushBranchPredictor() {
  bp_->FlushAll();
  Cycles cost = lat().bp_flush;
  cycles_ += cost;
  return cost;
}

Cycles Core::FullCacheFlush(bool include_llc) {
  machine_->BumpStateGen();
  Cycles cost = FlushCache(*l1d_);
  cost += static_cast<Cycles>(l1i_->InvalidateAll()) * 1;
  if (l2_ != nullptr) {
    cost += FlushCache(*l2_);
  }
  if (include_llc) {
    cost += FlushCache(machine_->llc());
  }
  cycles_ += cost;
  return cost;
}

Cycles Core::FlushCache(SetAssociativeCache& cache) {
  const Latencies& L = lat();
  const std::size_t lines = cache.geometry().TotalLines();
  const std::size_t dirty = cache.FlushAll();
  return static_cast<Cycles>(lines) * L.flush_per_line +
         static_cast<Cycles>(dirty) * L.flush_dirty_extra;
}

void Core::BackInvalidateLine(PAddr line_paddr) {
  l1d_->InvalidateLineByPaddr(line_paddr);
  l1i_->InvalidateLineByPaddr(line_paddr);
  if (l2_ != nullptr) {
    l2_->InvalidateLineByPaddr(line_paddr);
  }
}

}  // namespace tp::hw
