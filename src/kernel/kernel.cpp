// Kernel core: cost model, scheduling, the §4.3 domain-switch sequence and
// the execution loop. Object-specific syscalls live in ipc.cpp, untyped.cpp
// and kernel_image.cpp; boot-time construction in boot.cpp.
#include "kernel/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "hw/taint.hpp"
#include "kernel/contract.hpp"

namespace tp::kernel {

namespace {

// Pipeline serialisation charged per chained jump of the manual L1-I flush;
// every jump in the chain is mispredicted and serialises the front end,
// which is why the paper's x86 "manual" flush costs ~26 µs where a
// hardware-assisted flush would cost ~1 µs (Table 2).
constexpr hw::Cycles kJumpSerializeCycles = 45;

constexpr hw::Cycles kIdleStepCycles = 200;

// Text window (offset, length in cache lines) per kernel operation. The
// windows are disjoint, giving each operation a distinguishable cache
// footprint — the raw kernel-image channel of §5.3.1 depends on exactly
// this property of real kernels.
constexpr Kernel::TextWindow kTextWindows[static_cast<std::size_t>(KernelOp::kCount)] = {
    {0, 24},    // kEntry
    {32, 12},   // kExit
    {64, 20},   // kSignal
    {96, 22},   // kWait
    {128, 14},  // kPoll
    {160, 36},  // kTcbSetPriority
    {208, 40},  // kIpcSend
    {256, 40},  // kIpcRecv
    {304, 36},  // kIpcCall
    {352, 36},  // kIpcReplyRecv
    {400, 16},  // kYield
    {432, 60},  // kRetype
    {500, 40},  // kMap
    {548, 80},  // kClone
    {632, 60},  // kDestroy
    {700, 30},  // kIrq
    {736, 40},  // kTick
    {780, 24},  // kSchedule
    {810, 16},  // kStackSwitch
    {830, 18},  // kSetTimer
};

}  // namespace

Kernel::TextWindow Kernel::TextWindowFor(KernelOp op) {
  return kTextWindows[static_cast<std::size_t>(op)];
}

Kernel::Kernel(hw::Machine& machine, const KernelConfig& config)
    : machine_(machine), config_(config) {
  core_state_.resize(machine_.num_cores());
  for (std::size_t c = 0; c < machine_.num_cores(); ++c) {
    apis_.push_back(std::make_unique<UserApi>(*this, static_cast<hw::CoreId>(c)));
  }
  Boot();

  if (hw::TaintTrackingEnabled()) {
    checker_ = std::make_unique<ContractChecker>(*this);
    // Taint-neutral physical ranges: the §4.1 shared region (accessed
    // deterministically by design) and the x86 manual-flush buffers (their
    // contents are the flush itself, not domain activity).
    const hw::MachineConfig& mc = machine_.config();
    const std::size_t flush_span =
        mc.has_architected_l1_flush
            ? 0
            : machine_.num_cores() * 2 * std::max(mc.l1d.size_bytes, mc.l1i.size_bytes);
    for (std::size_t c = 0; c < machine_.num_cores(); ++c) {
      machine_.core(c).AddTaintNeutralRange(shared_data_.base, shared_data_.size);
      machine_.core(c).AddTaintNeutralRange(flush_buffer_base_, flush_span);
    }
  }

  fault_flush_l1d_ = faults::FaultSite::For("flush.l1d");
  fault_flush_l1i_ = faults::FaultSite::For("flush.l1i");
  fault_flush_tlb_ = faults::FaultSite::For("flush.tlb");
  fault_flush_bp_ = faults::FaultSite::For("flush.bp");
  fault_flush_llc_ = faults::FaultSite::For("flush.llc");
  fault_pad_truncate_ = faults::FaultSite::For("pad.truncate");

  if (config_.flush_mode == FlushMode::kFull) {
    // §5.2 full-flush scenario: data prefetcher disabled via MSR; on Arm the
    // BP is disabled outright for the duration. prefetch.reset fault: the
    // MSR write is "forgotten" and the prefetcher keeps training.
    faults::FaultSite fault_prefetch = faults::FaultSite::For("prefetch.reset");
    for (std::size_t c = 0; c < machine_.num_cores(); ++c) {
      if (!fault_prefetch.FireAlways()) {
        machine_.core(c).prefetcher().SetDataPrefetcherEnabled(false);
      }
      if (machine_.config().arch == hw::Arch::kArm) {
        machine_.core(c).branch_predictor().set_enabled(false);
      }
    }
  }
}

Kernel::~Kernel() = default;

void Kernel::RegisterDomainColours(DomainId domain, const std::set<std::size_t>& colours) {
  if (checker_ != nullptr) {
    checker_->RegisterDomainColours(domain, colours);
  }
}

TcbObj& Kernel::CurrentTcbRef(hw::CoreId core) {
  return objects_.As<TcbObj>(core_state_.at(core).cur_tcb);
}

// --------------------------------------------------------------------------
// Cost model
// --------------------------------------------------------------------------

void Kernel::ExecText(hw::CoreId core, KernelOp op) {
  const Kernel::TextWindow& w = kTextWindows[static_cast<std::size_t>(op)];
  const KernelImageObj& image = objects_.As<KernelImageObj>(core_state_[core].cur_image);
  std::size_t line = machine_.config().llc.line_size;
  hw::Core& cpu = machine_.core(core);
  for (std::uint32_t i = 0; i < w.length_lines; ++i) {
    hw::PAddr pa = image.PaddrOf(image.text_off + (w.offset_lines + i) * line);
    cpu.Access(hw::KernelVaddrFor(pa), hw::AccessKind::kFetch);
  }
}

void Kernel::TouchData(hw::CoreId core, hw::PAddr paddr, std::size_t bytes, bool write) {
  std::size_t line = machine_.config().llc.line_size;
  hw::Core& cpu = machine_.core(core);
  hw::PAddr first = paddr / line * line;
  hw::PAddr last = (paddr + (bytes == 0 ? 0 : bytes - 1)) / line * line;
  for (hw::PAddr pa = first; pa <= last; pa += line) {
    if (shared_probe_ && pa >= shared_data_.base &&
        pa < shared_data_.base + shared_data_.size) {
      shared_probe_(pa, write);
    }
    cpu.Access(hw::KernelVaddrFor(pa), write ? hw::AccessKind::kWrite : hw::AccessKind::kRead);
  }
}

void Kernel::TouchStack(hw::CoreId core, std::size_t bytes, bool write) {
  const KernelImageObj& image = objects_.As<KernelImageObj>(core_state_[core].cur_image);
  // Per-core slice of the kernel stack region.
  std::size_t slice = image.stack_size / machine_.num_cores();
  TouchData(core, image.PaddrOf(image.stack_off + core * slice), bytes, write);
}

const Capability* Kernel::Check(CSpace& cspace, CapIdx idx, ObjectType type) {
  if (idx >= cspace.size()) {
    return nullptr;
  }
  const Capability& cap = cspace.At(idx);
  if (!objects_.Validate(cap) || cap.type != type) {
    return nullptr;
  }
  return &cap;
}

const Capability* Kernel::CheckCurrent(hw::CoreId core, CapIdx idx, ObjectType type) {
  const TcbObj& cur = CurrentTcbRef(core);
  return cur.cspace ? Check(*cur.cspace, idx, type) : nullptr;
}

CapIdx Kernel::MintCap(CSpace& cspace, ObjId obj, ObjectType type, CapRights rights) {
  return cspace.Insert(Capability{obj, type, rights, 0, objects_.Get(obj).generation});
}

SyscallResult Kernel::BlockCurrent(hw::CoreId core, ThreadState state, ObjId on) {
  MakeBlocked(core_state_[core].cur_tcb, state, on);
  RescheduleCore(core);
  return {SyscallError::kWouldBlock};
}

// --------------------------------------------------------------------------
// Scheduling internals
// --------------------------------------------------------------------------

ObjId Kernel::IdleThreadFor(DomainId domain) {
  auto it = domain_image_.find(domain);
  ObjId image = it != domain_image_.end() ? it->second : boot_image_;
  if (!objects_.IsLive(image)) {
    image = boot_image_;
  }
  return image;  // caller resolves per-core idle thread
}

ObjId Kernel::PickThread(hw::CoreId core, DomainId domain) {
  // Scan the domain's queues, skipping threads pinned to other cores.
  // (Round-robin rotation keeps this fair.)
  for (std::size_t attempts = 0; attempts < 257; ++attempts) {
    ObjId tcb = scheduler_.PickAndRotate(domain);
    if (tcb == kNullObj) {
      break;
    }
    TcbObj& t = objects_.As<TcbObj>(tcb);
    if (t.affinity == core) {
      return tcb;
    }
  }
  ObjId image = IdleThreadFor(domain);
  return objects_.As<KernelImageObj>(image).idle_threads.at(core);
}

void Kernel::MakeRunnable(ObjId tcb) {
  TcbObj& t = objects_.As<TcbObj>(tcb);
  if (t.is_idle) {
    return;
  }
  t.state = ThreadState::kRunnable;
  t.blocked_on = kNullObj;
  scheduler_.Enqueue(tcb, t.priority, t.domain);
}

void Kernel::MakeBlocked(ObjId tcb, ThreadState state, ObjId on) {
  TcbObj& t = objects_.As<TcbObj>(tcb);
  scheduler_.Dequeue(tcb, t.priority, t.domain);
  t.state = state;
  t.blocked_on = on;
}

SyscallResult Kernel::BindDomainToImage(hw::CoreId core, CSpace& cspace, DomainId domain,
                                        CapIdx image) {
  return Syscall(core, std::nullopt, [&]() -> SyscallResult {
    const Capability* icap = Check(cspace, image, ObjectType::kKernelImage);
    if (icap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    domain_image_[domain] = icap->obj;
    return {};
  });
}

void Kernel::SwitchToThread(hw::CoreId core, ObjId tcb) {
  CoreState& cs = core_state_[core];
  hw::Core& cpu = machine_.core(core);

  if (cs.cur_tcb != kNullObj && cs.cur_tcb != tcb) {
    TcbObj& prev = objects_.As<TcbObj>(cs.cur_tcb);
    if (prev.state == ThreadState::kRunning) {
      MakeRunnable(cs.cur_tcb);
    }
    TouchData(core, prev.metadata_paddr, 128, true);
  }

  TcbObj& next = objects_.As<TcbObj>(tcb);
  scheduler_.Dequeue(tcb, next.priority, next.domain);
  next.state = next.is_idle ? ThreadState::kIdle : ThreadState::kRunning;
  TouchData(core, next.metadata_paddr, 128, false);

  ObjId old_image = cs.cur_image;
  cs.cur_tcb = tcb;
  // Idle threads serve whatever domain is scheduled; they must not drag the
  // core back to the boot domain.
  if (!next.is_idle) {
    cs.cur_domain = next.domain;
  }
  if (next.kernel_image != kNullObj && next.kernel_image != cs.cur_image) {
    cs.cur_image = next.kernel_image;
  }

  KernelImageObj& image = objects_.As<KernelImageObj>(cs.cur_image);
  if (old_image != cs.cur_image && old_image != kNullObj) {
    KernelImageObj& old = objects_.As<KernelImageObj>(old_image);
    old.running_cores &= ~(std::uint64_t{1} << core);
  }
  image.running_cores |= std::uint64_t{1} << core;

  const AddressSpace* user_as = nullptr;
  if (next.vspace != kNullObj) {
    user_as = objects_.As<VSpaceObj>(next.vspace).space.get();
  }
  cpu.SetUserContext(user_as);
  cpu.SetKernelContext(image.window.get(), /*kernel_global=*/!config_.clone_support);
  cpu.SetDomainTag(next.domain);

  // Current-thread pointers live in the §4.1 shared region.
  TouchData(core, shared_data_.At(SharedDataLayout::kCurrentThreadPtrs), 40, true);
}

void Kernel::RescheduleCore(hw::CoreId core) {
  CoreState& cs = core_state_[core];
  ObjId next = PickThread(core, cs.cur_domain);
  SwitchToThread(core, next);
}

// --------------------------------------------------------------------------
// IRQ partitioning (Requirement 5)
// --------------------------------------------------------------------------

void Kernel::MaskForSwitch(hw::CoreId core) {
  if (!config_.partition_irqs) {
    return;
  }
  hw::InterruptController& irqc = machine_.irq_controller();
  irqc.MaskAll();
  TouchData(core, shared_data_.At(SharedDataLayout::kIrqStateTable), 256, true);
  if (irqc.arch() == hw::IrqArch::kX86Hierarchical) {
    // Drain interrupts accepted before the mask took effect (§4.3 race).
    irqc.ProbeAndAckAccepted();
    machine_.core(core).AdvanceCycles(50);
  }
}

void Kernel::UnmaskForImage(hw::CoreId core, ObjId image_id) {
  hw::InterruptController& irqc = machine_.irq_controller();
  if (!config_.partition_irqs) {
    for (std::size_t l = 0; l < irqc.num_lines(); ++l) {
      irqc.Unmask(static_cast<hw::IrqLine>(l));
    }
    return;
  }
  const KernelImageObj& image = objects_.As<KernelImageObj>(image_id);
  for (hw::IrqLine line : image.irqs) {
    irqc.Unmask(line);
  }
  TouchData(core, shared_data_.At(SharedDataLayout::kIrqStateTable), 64, true);
}

// --------------------------------------------------------------------------
// Flushes (Requirements 1 and 4)
// --------------------------------------------------------------------------

void Kernel::ManualL1DFlush(hw::CoreId core) {
  // Load one word per line of an L1-D-sized buffer: with LRU replacement
  // this displaces (and writes back) the entire previous L1-D content.
  hw::Core& cpu = machine_.core(core);
  const hw::CacheGeometry& g = machine_.config().l1d;
  hw::PAddr buffer = flush_buffer_base_ + core * 2 * g.size_bytes;
  for (std::size_t off = 0; off < g.size_bytes; off += g.line_size) {
    cpu.Access(hw::KernelVaddrFor(buffer + off), hw::AccessKind::kRead);
  }
}

void Kernel::ManualL1IFlush(hw::CoreId core) {
  // Chained jumps through an L1-I-sized buffer; each jump is mispredicted
  // and serialises the pipeline (the dominant cost of the manual flush).
  hw::Core& cpu = machine_.core(core);
  const hw::CacheGeometry& g = machine_.config().l1i;
  hw::PAddr buffer = flush_buffer_base_ + core * 2 * g.size_bytes + g.size_bytes;
  for (std::size_t off = 0; off < g.size_bytes; off += g.line_size) {
    hw::VAddr pc = hw::KernelVaddrFor(buffer + off);
    hw::VAddr target = hw::KernelVaddrFor(buffer + ((off + g.line_size) % g.size_bytes));
    cpu.Access(pc, hw::AccessKind::kFetch);
    cpu.Branch(pc, target, /*taken=*/true, /*conditional=*/false);
    cpu.AdvanceCycles(kJumpSerializeCycles);
  }
}

void Kernel::FlushOnCoreState(hw::CoreId core) {
  hw::Core& cpu = machine_.core(core);
  if (machine_.config().has_architected_l1_flush) {
    // Arm: DCCISW + ICIALLU + TLBIALL + BPIALL.
    if (!fault_flush_l1d_.FireOnce()) {
      cpu.ArchFlushL1D();
    }
    if (!fault_flush_l1i_.FireOnce()) {
      cpu.InvalidateL1I();
    }
    if (!fault_flush_tlb_.FireOnce()) {
      cpu.FlushTlbAll();
    }
    if (config_.has_bp_flush && !fault_flush_bp_.FireOnce()) {
      cpu.FlushBranchPredictor();
    }
  } else {
    // x86: IBC for the BP (post-Spectre microcode only), invpcid for TLBs,
    // manual loads/jumps for L1.
    if (config_.has_bp_flush && !fault_flush_bp_.FireOnce()) {
      cpu.FlushBranchPredictor();
    }
    if (!fault_flush_tlb_.FireOnce()) {
      cpu.FlushTlbAll();
    }
    if (!fault_flush_l1d_.FireOnce()) {
      ManualL1DFlush(core);
    }
    if (!fault_flush_l1i_.FireOnce()) {
      ManualL1IFlush(core);
    }
  }
}

void Kernel::FullFlush(hw::CoreId core) {
  hw::Core& cpu = machine_.core(core);
  cpu.FullCacheFlush(/*include_llc=*/!fault_flush_llc_.FireOnce());
  if (!fault_flush_tlb_.FireOnce()) {
    cpu.FlushTlbAll();
  }
  if (!fault_flush_bp_.FireOnce()) {
    cpu.FlushBranchPredictor();
  }
}

hw::Cycles Kernel::MeasureOnCoreFlush(hw::CoreId core) {
  hw::Cycles t0 = machine_.core(core).now();
  FlushOnCoreState(core);
  return machine_.core(core).now() - t0;
}

hw::Cycles Kernel::MeasureFullFlush(hw::CoreId core) {
  hw::Cycles t0 = machine_.core(core).now();
  FullFlush(core);
  return machine_.core(core).now() - t0;
}

void Kernel::PrefetchSharedData(hw::CoreId core) {
  // Requirement 3: deterministic access to the remaining shared state —
  // touch every line so kernel exit timing is independent of prior
  // residency (done just before padding, so the loads' cost is hidden).
  TouchData(core, shared_data_.base, SharedDataLayout::kTotal, false);
}

// --------------------------------------------------------------------------
// Tick and IRQ handling
// --------------------------------------------------------------------------

void Kernel::HandleTick(hw::CoreId core) {
  hw::Core& cpu = machine_.core(core);
  CoreState& cs = core_state_[core];
  hw::Cycles entry = cpu.now();
  // The preemption *interrupt* fired at the scheduled deadline; handling may
  // start later (a syscall or long operation was in flight). Padding and
  // timer reprogramming are based on the interrupt time, so that handling
  // jitter cannot modulate the next domain's start (§4.3: the padding must
  // also cover worst-case handling of work in flight at the tick).
  hw::Cycles t0 = cpu.preemption_timer().armed()
                      ? std::min(cpu.preemption_timer().deadline(), entry)
                      : entry;
  cs.last_tick_time = t0;
  cpu.preemption_timer().Clear();

  // The whole tick sequence is taint-neutral: which domain runs next (and
  // every access the switch path makes) is determined by the schedule, not
  // by any domain's secrets — the same determinism argument the paper makes
  // for the shared switch code (§4.1). SwitchToThread re-aligns the owner
  // with the new domain tag, so it is re-zeroed after, and the real owner
  // is restored at tick exit.
  const bool contract = checker_ != nullptr;
  if (contract) {
    cpu.SetTaintOwner(0);
  }

  ObjId from_image = cs.cur_image;

  // Step 1: acquire the kernel lock.
  cpu.AdvanceCycles(kTrapInCycles);
  ExecText(core, KernelOp::kEntry);
  TouchData(core, shared_data_.At(SharedDataLayout::kKernelLock), 8, true);

  // Step 2: process the timer tick normally.
  ExecText(core, KernelOp::kTick);
  TouchData(core, shared_data_.At(SharedDataLayout::kSchedDecision), 8, true);
  TouchData(core, shared_data_.At(SharedDataLayout::kSchedBitmap), 32, false);
  cs.schedule_pos = (cs.schedule_pos + 1) % cs.schedule.size();
  DomainId next_domain = cs.schedule[cs.schedule_pos];
  ObjId next = PickThread(core, next_domain);
  ExecText(core, KernelOp::kSchedule);
  TouchData(core,
            shared_data_.At(SharedDataLayout::kSchedQueues +
                            scheduler_.last_picked_priority() * 16),
            16, false);

  const TcbObj& next_tcb = objects_.As<TcbObj>(next);
  ObjId to_image = next_tcb.kernel_image != kNullObj ? next_tcb.kernel_image : from_image;
  bool domain_switch = next_domain != cs.cur_domain || to_image != from_image;

  if (domain_switch) {
    ++domain_switches_;

    // Step 3: mask interrupts (and resolve the x86 acceptance race).
    MaskForSwitch(core);

    // Step 4: switch the kernel stack (after copying the live frames).
    if (to_image != from_image) {
      KernelSwitch(core, from_image, to_image);
    }

    // Step 5: switch thread context (implicitly the kernel image).
    SwitchToThread(core, next);
    cs.cur_domain = next_domain;
    if (contract) {
      cpu.SetTaintOwner(0);  // SetDomainTag re-aligned it; still in the tick
    }

    // Step 6: release the kernel lock.
    TouchData(core, shared_data_.At(SharedDataLayout::kKernelLock), 8, true);

    // Step 7: unmask the new kernel's interrupts.
    UnmaskForImage(core, cs.cur_image);

    // Step 8: flush on-core microarchitectural state.
    switch (config_.flush_mode) {
      case FlushMode::kNone:
        break;
      case FlushMode::kOnCore:
        FlushOnCoreState(core);
        break;
      case FlushMode::kFull:
        FullFlush(core);
        break;
    }

    // Step 9: pre-fetch shared kernel data.
    if (config_.prefetch_shared_data) {
      PrefetchSharedData(core);
    }

    cs.last_switch_cost = cpu.now() - entry;

    // Step 10: poll the cycle counter for the configured latency, taken
    // from the kernel that was active before the switch.
    if (config_.pad_switches) {
      const KernelImageObj& src = objects_.As<KernelImageObj>(from_image);
      hw::Cycles pad = src.pad_cycles;
      if (fault_pad_truncate_.FireAlways()) {
        // Injected fault: keep only a fraction (default none) of the
        // worst-case window, re-exposing the switch-duration channel.
        pad = static_cast<hw::Cycles>(static_cast<double>(pad) *
                                      fault_pad_truncate_.ParamOr(0.0));
      }
      hw::Cycles target = t0 + pad;
      if (pad > 0 && cpu.now() < target) {
        cpu.AdvanceCycles(target - cpu.now());
      }
    }

    // Contract check: with the switch sequence complete, no observable
    // state of another domain may remain (hw/taint.hpp).
    if (contract) {
      checker_->CheckSwitch(core, cs.cur_domain);
    }
  } else {
    SwitchToThread(core, next);
    cs.cur_domain = next_domain;
    if (contract) {
      cpu.SetTaintOwner(0);
    }
    TouchData(core, shared_data_.At(SharedDataLayout::kKernelLock), 8, true);
    cs.last_switch_cost = cpu.now() - entry;
  }

  // Step 11: reprogram the timer interrupt.
  hw::Cycles next_deadline = std::max(cpu.now() + 1000, t0 + config_.timeslice_cycles);
  cpu.preemption_timer().SetDeadline(next_deadline);

  // Step 12: restore the user stack pointer and return.
  ExecText(core, KernelOp::kExit);
  cpu.AdvanceCycles(kTrapOutCycles);

  if (contract) {
    cpu.SetTaintOwner(cpu.domain_tag());  // back to user execution
  }
}

void Kernel::KernelSwitch(hw::CoreId core, ObjId from_image, ObjId to_image,
                          bool copy_stack) {
  ExecText(core, KernelOp::kStackSwitch);
  if (!copy_stack) {
    return;  // direct-IPC path: the new kernel starts from a clean frame
  }
  const KernelImageObj& from = objects_.As<KernelImageObj>(from_image);
  const KernelImageObj& to = objects_.As<KernelImageObj>(to_image);
  // Copy the live stack frames (the active portion is shallow at the
  // preemption point) from the old image's stack to the new one.
  std::size_t line = machine_.config().llc.line_size;
  std::size_t live_bytes = 4 * line;
  std::size_t cores = machine_.num_cores();
  TouchData(core, from.PaddrOf(from.stack_off + core * (from.stack_size / cores)), live_bytes,
            false);
  TouchData(core, to.PaddrOf(to.stack_off + core * (to.stack_size / cores)), live_bytes, true);
}

void Kernel::HandleDeviceIrq(hw::CoreId core, hw::IrqLine line) {
  hw::Core& cpu = machine_.core(core);
  cpu.AdvanceCycles(kTrapInCycles);
  ExecText(core, KernelOp::kEntry);
  ExecText(core, KernelOp::kIrq);
  TouchData(core, shared_data_.At(SharedDataLayout::kCurrentIrq), 8, true);
  TouchData(core, shared_data_.At(SharedDataLayout::kIrqHandlerTable + line * 16), 16, false);

  machine_.irq_controller().Ack(line);
  ExecText(core, KernelOp::kExit);
  cpu.AdvanceCycles(kTrapOutCycles);
}

// --------------------------------------------------------------------------
// Execution loop
// --------------------------------------------------------------------------

void Kernel::KickSchedule(hw::CoreId core) {
  hw::Core& cpu = machine_.core(core);
  cpu.preemption_timer().SetDeadline(cpu.now());
}

void Kernel::StepCore(hw::CoreId core) {
  hw::Core& cpu = machine_.core(core);
  machine_.PollDeviceTimers(cpu.now());

  if (cpu.preemption_timer().Expired(cpu.now())) {
    HandleTick(core);
    return;
  }

  std::optional<hw::IrqLine> irq = machine_.irq_controller().PendingDeliverable();
  if (irq.has_value()) {
    HandleDeviceIrq(core, *irq);
    return;
  }

  CoreState& cs = core_state_[core];
  TcbObj& t = objects_.As<TcbObj>(cs.cur_tcb);
  if (t.is_idle || t.program == nullptr) {
    // Leave idle as soon as the domain has runnable work.
    if (scheduler_.Peek(cs.cur_domain) != kNullObj) {
      RescheduleCore(core);
      return;
    }
    cpu.AdvanceCycles(kIdleStepCycles);
    return;
  }
  if (t.state != ThreadState::kRunning) {
    RescheduleCore(core);
    return;
  }
  t.program->Step(*apis_[core]);
  if (cs.cur_tcb != kNullObj) {
    TcbObj& after = objects_.As<TcbObj>(cs.cur_tcb);
    if (!after.is_idle && after.program != nullptr && after.program->Done() &&
        after.state == ThreadState::kRunning) {
      MakeBlocked(cs.cur_tcb, ThreadState::kInactive, kNullObj);
      RescheduleCore(core);
    }
  }
}

void Kernel::RunUntil(hw::Cycles until) {
  while (true) {
    std::size_t min_core = 0;
    hw::Cycles min_now = ~hw::Cycles{0};
    for (std::size_t c = 0; c < machine_.num_cores(); ++c) {
      if (machine_.core(c).now() < min_now) {
        min_now = machine_.core(c).now();
        min_core = c;
      }
    }
    if (min_now >= until) {
      break;
    }
    StepCore(static_cast<hw::CoreId>(min_core));
  }
}

void Kernel::RunFor(hw::Cycles duration) {
  hw::Cycles start = ~hw::Cycles{0};
  for (std::size_t c = 0; c < machine_.num_cores(); ++c) {
    start = std::min(start, machine_.core(c).now());
  }
  RunUntil(start + duration);
}

void Kernel::SetDomainSchedule(hw::CoreId core, const std::vector<DomainId>& schedule) {
  if (schedule.empty()) {
    return;
  }
  CoreState& cs = core_state_.at(core);
  cs.schedule = schedule;
  cs.schedule_pos = 0;
}

void Kernel::SetDomainSchedule(const std::vector<DomainId>& schedule) {
  for (std::size_t c = 0; c < machine_.num_cores(); ++c) {
    SetDomainSchedule(static_cast<hw::CoreId>(c), schedule);
  }
}

// --------------------------------------------------------------------------
// Simple runtime syscalls
// --------------------------------------------------------------------------

SyscallResult Kernel::SysSetPriority(hw::CoreId core, CapIdx tcb_cap, std::uint8_t priority) {
  return Syscall(core, KernelOp::kTcbSetPriority, [&]() -> SyscallResult {
    const Capability* cap = CheckCurrent(core, tcb_cap, ObjectType::kTcb);
    if (cap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    TcbObj& t = objects_.As<TcbObj>(cap->obj);
    TouchData(core, t.metadata_paddr, 64, true);
    bool queued = scheduler_.IsQueued(cap->obj, t.priority, t.domain);
    if (queued) {
      scheduler_.Dequeue(cap->obj, t.priority, t.domain);
    }
    t.priority = priority;
    if (queued) {
      scheduler_.Enqueue(cap->obj, t.priority, t.domain);
    }
    // Ready-queue head array is in the shared region (§4.1 item 1).
    TouchData(core, shared_data_.At(SharedDataLayout::kSchedQueues + priority * 16), 16, true);
    TouchData(core, shared_data_.At(SharedDataLayout::kSchedBitmap), 32, true);
    return {};
  });
}

SyscallResult Kernel::SysYield(hw::CoreId core) {
  return Syscall(core, KernelOp::kYield, [&]() -> SyscallResult {
    if (!CurrentTcbRef(core).is_idle) {
      MakeRunnable(core_state_[core].cur_tcb);
    }
    RescheduleCore(core);
    return {};
  });
}

SyscallResult Kernel::SysSetTimer(hw::CoreId core, CapIdx timer_cap,
                                  hw::Cycles relative_deadline) {
  return Syscall(core, KernelOp::kSetTimer, [&]() -> SyscallResult {
    const Capability* cap = CheckCurrent(core, timer_cap, ObjectType::kDeviceTimer);
    if (cap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    const DeviceTimerObj& t = objects_.As<DeviceTimerObj>(cap->obj);
    machine_.device_timer(t.timer_index)
        .SetDeadline(machine_.core(core).now() + relative_deadline);
    return {};
  });
}

// --------------------------------------------------------------------------
// UserApi hardware pass-through
// --------------------------------------------------------------------------

UserApi::UserApi(Kernel& kernel, hw::CoreId core)
    : kernel_(kernel), core_(core), hw_core_(&kernel.machine().core(core)) {}

}  // namespace tp::kernel
