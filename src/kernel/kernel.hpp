// The seL4-like microkernel with time protection (paper §4).
//
// The kernel executes *on* the simulated machine: every syscall fetches
// kernel text through the current kernel image's mapping, touches object
// metadata in caller-supplied memory and shared global data in the §4.1
// region — all through the cache hierarchy of the acting core. Kernel cache
// footprints are therefore real, attackable (§5.3.1) and partitionable by
// kernel cloning.
//
// User code runs as step-functions; the kernel preempts between steps when
// the per-core timer has fired and then performs the 12-step domain-switch
// sequence of §4.3 (mask, stack switch, context switch, unmask, flush,
// prefetch shared data, pad, reprogram).
#ifndef TP_KERNEL_KERNEL_HPP_
#define TP_KERNEL_KERNEL_HPP_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "faults/fault.hpp"
#include "hw/machine.hpp"
#include "kernel/objects.hpp"
#include "kernel/scheduler.hpp"
#include "kernel/types.hpp"

namespace tp::kernel {

// What on-core state the kernel scrubs on a domain switch (§5.2 scenarios).
enum class FlushMode {
  kNone,    // "raw": no mitigation
  kOnCore,  // time protection: L1 + TLB + BP (manual L1 flush on x86)
  kFull,    // maximal architected reset: full hierarchy + prefetcher off
};

struct KernelConfig {
  // Colour-ready kernel: kernel mappings are per-image (non-global). The
  // baseline kernel maps its window global — cheaper on low-associativity
  // TLBs (Table 5) but incompatible with cloning.
  bool clone_support = false;
  FlushMode flush_mode = FlushMode::kNone;
  bool prefetch_shared_data = false;  // Requirement 3 (deterministic sharing)
  bool pad_switches = false;          // Requirement 4 (deterministic flush)
  bool partition_irqs = false;        // Requirement 5
  // Haswell only gained a BP-flush primitive (IBC) with the Spectre
  // microcode update; without it the BTB/BHB cannot be scrubbed on x86 and
  // "the situation was much worse" (paper §6.1). Clearing this models the
  // pre-update hardware for ablation studies.
  bool has_bp_flush = true;
  hw::Cycles timeslice_cycles = 1'000'000;
};

// Kernel image sections, the paper's ~200 KiB x86 image: text, replicated
// globals, stack and per-image kernel page tables. Every image lays them
// out back to back, followed by one idle-thread TCB per core.
inline constexpr std::size_t kKernelTextBytes = 128 * 1024;
inline constexpr std::size_t kKernelDataBytes = 32 * 1024;
inline constexpr std::size_t kKernelStackBytes = 16 * 1024;
inline constexpr std::size_t kKernelPtBytes = 16 * 1024;
inline constexpr std::size_t kIdleTcbBytes = 1024;

// Physical layout of the one region every kernel image shares: the §4.1
// list. Everything else is per-image.
struct SharedDataLayout {
  hw::PAddr base = 0;
  std::size_t size = 0;

  // Offsets of the §4.1 items (sizes from the paper, x64 single core).
  static constexpr std::size_t kSchedQueues = 0;          // 4 KiB
  static constexpr std::size_t kSchedBitmap = 4096;       // 32 B
  static constexpr std::size_t kSchedDecision = 4128;     // 8 B
  static constexpr std::size_t kIrqStateTable = 4136;     // 1.1 KiB
  static constexpr std::size_t kIrqHandlerTable = 5288;   // 1.1 KiB
  static constexpr std::size_t kCurrentIrq = 6440;        // 8 B
  static constexpr std::size_t kAsidTable = 6448;         // 1.1 KiB
  static constexpr std::size_t kIoPortTable = 7600;       // 2 KiB (x86)
  static constexpr std::size_t kCurrentThreadPtrs = 9648; // 40 B
  static constexpr std::size_t kKernelLock = 9688;        // 8 B
  static constexpr std::size_t kIpiBarrier = 9696;        // 8 B
  static constexpr std::size_t kTotal = 9704;             // ~9.5 KiB

  hw::PAddr At(std::size_t offset) const { return base + offset; }
};

struct BootInfo {
  std::shared_ptr<CSpace> root_cspace;
  CapIdx untyped = 0;       // all free physical memory
  CapIdx kernel_image = 0;  // master cap for the boot kernel, clone right set
  std::vector<CapIdx> irq_handlers;   // one per device IRQ line
  std::vector<CapIdx> device_timers;  // user-programmable one-shot timers
};

struct TcbSettings {
  CapIdx vspace = 0;
  std::uint8_t priority = 100;
  DomainId domain = 0;
  CapIdx kernel_image = 0;
  hw::CoreId affinity = 0;
  UserProgram* program = nullptr;
  std::shared_ptr<CSpace> cspace;
};

class UserApi;
class ContractChecker;

class Kernel {
 public:
  Kernel(hw::Machine& machine, const KernelConfig& config);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  const BootInfo& boot_info() const { return boot_info_; }
  const KernelConfig& config() const { return config_; }
  hw::Machine& machine() { return machine_; }
  ObjectTable& objects() { return objects_; }
  Scheduler& scheduler() { return scheduler_; }
  const SharedDataLayout& shared_data() const { return shared_data_; }
  // Bytes one kernel image occupies: its sections plus the idle TCBs. A
  // clone needs Kernel_Memory of at least this size.
  std::size_t ImageBytes() const;

  // --- object-invocation syscalls (init/runtime; charged to `core`) -------

  SyscallResult Retype(hw::CoreId core, CSpace& cspace, CapIdx untyped, ObjectType type,
                       std::size_t size_bytes, CapIdx* out_cap);
  // Creates a TCB/endpoint/notification whose metadata lives in the given
  // (coloured) frame — the coloured equivalent of retyping from a
  // colour-partitioned untyped pool.
  SyscallResult RetypeInFrame(hw::CoreId core, CSpace& cspace, CapIdx frame, ObjectType type,
                              CapIdx* out_cap);
  SyscallResult KernelClone(hw::CoreId core, CSpace& cspace, CapIdx dest_image,
                            CapIdx src_image, CapIdx kernel_memory);
  SyscallResult KernelDestroy(hw::CoreId core, CSpace& cspace, CapIdx image);
  SyscallResult KernelSetInt(hw::CoreId core, CSpace& cspace, CapIdx image, CapIdx irq_handler);
  SyscallResult KernelSetPad(hw::CoreId core, CSpace& cspace, CapIdx image, hw::Cycles pad);
  SyscallResult MapFrame(hw::CoreId core, CSpace& cspace, CapIdx vspace, CapIdx frame,
                         hw::VAddr vaddr);
  // Appends a (coloured) frame to a not-yet-bound Kernel_Memory object; the
  // cloner assembles kernel memory from its domain's pool this way (§3.3).
  SyscallResult KernelMemoryAddFrame(hw::CoreId core, CSpace& cspace, CapIdx kmem,
                                     CapIdx frame);
  // Models userland retyping page-table objects from its own untyped pool:
  // interior PT frames of `vspace` will come from `alloc` from now on.
  SyscallResult SetVSpaceAllocator(CSpace& cspace, CapIdx vspace, FrameAllocator alloc);
  SyscallResult ConfigureTcb(hw::CoreId core, CSpace& cspace, CapIdx tcb,
                             const TcbSettings& settings);
  SyscallResult ResumeTcb(hw::CoreId core, CSpace& cspace, CapIdx tcb);
  // Associates a security domain with a kernel image: the domain's idle
  // thread (and any thread defaulting its image) comes from this kernel.
  SyscallResult BindDomainToImage(hw::CoreId core, CSpace& cspace, DomainId domain,
                                  CapIdx image);

  // Monolithic-process-creation comparator for Table 7: vspace + eager map
  // + image copy + zeroing, the work Linux fork+exec performs up front.
  SyscallResult SpawnProcessEager(hw::CoreId core, CSpace& cspace, CapIdx untyped,
                                  std::size_t image_pages, std::size_t map_pages,
                                  CapIdx* out_vspace);

  // --- runtime syscalls (current thread of `core` implied) ----------------

  SyscallResult SysSignal(hw::CoreId core, CapIdx notification);
  SyscallResult SysWait(hw::CoreId core, CapIdx notification);
  SyscallResult SysPoll(hw::CoreId core, CapIdx notification);
  SyscallResult SysSetPriority(hw::CoreId core, CapIdx tcb, std::uint8_t priority);
  SyscallResult SysYield(hw::CoreId core);
  SyscallResult SysCall(hw::CoreId core, CapIdx endpoint, std::uint64_t msg);
  SyscallResult SysReplyRecv(hw::CoreId core, CapIdx endpoint, std::uint64_t reply);
  SyscallResult SysRecv(hw::CoreId core, CapIdx endpoint);
  SyscallResult SysSend(hw::CoreId core, CapIdx endpoint, std::uint64_t msg);
  SyscallResult SysSetTimer(hw::CoreId core, CapIdx timer, hw::Cycles relative_deadline);

  // --- scheduling / execution ---------------------------------------------

  // Per-core domain schedule: the core round-robins through these domains
  // at preemption-tick granularity (seL4's domain scheduler). Pinning one
  // domain per core models the concurrent cloud scenario (§3.1.2).
  void SetDomainSchedule(hw::CoreId core, const std::vector<DomainId>& schedule);
  void SetDomainSchedule(const std::vector<DomainId>& schedule);  // all cores

  // Forces the preemption timer to fire on the next StepCore, skipping the
  // remainder of the current timeslice (used by test/benchmark harnesses to
  // avoid simulating the boot domain's idle slice).
  void KickSchedule(hw::CoreId core);

  // One unit of progress on `core`: deliver timer/IRQs, then run one step of
  // the current thread (or idle).
  void StepCore(hw::CoreId core);
  // Run all cores, interleaved in cycle order, until every core's clock
  // passed `until`.
  void RunUntil(hw::Cycles until);
  void RunFor(hw::Cycles duration);

  ObjId current_tcb(hw::CoreId core) const { return core_state_.at(core).cur_tcb; }
  ObjId current_image(hw::CoreId core) const { return core_state_.at(core).cur_image; }
  DomainId current_domain(hw::CoreId core) const { return core_state_.at(core).cur_domain; }
  std::uint64_t domain_switches() const { return domain_switches_; }

  // Cost/latency instrumentation: cycles consumed by the most recent
  // domain-switch sequence on each core (Table 6's object of study).
  hw::Cycles last_switch_cost(hw::CoreId core) const {
    return core_state_.at(core).last_switch_cost;
  }

  ObjId boot_image_id() const { return boot_image_; }

  // Direct flush invocations for the Table 2 cost measurements: run the
  // protected-mode on-core flush (manual on x86, architected on Arm) or the
  // maximal full flush on `core`, returning the cycles consumed.
  hw::Cycles MeasureOnCoreFlush(hw::CoreId core);
  hw::Cycles MeasureFullFlush(hw::CoreId core);

  // Kernel text layout: the (offset, length) window in cache lines that a
  // kernel operation's code occupies. Public because a realistic attacker
  // knows the kernel binary layout (the §5.3.1 receiver targets the LLC
  // sets of the syscall-serving text).
  struct TextWindow {
    std::uint32_t offset_lines;
    std::uint32_t length_lines;
  };
  static TextWindow TextWindowFor(KernelOp op);

  // Shared-data audit hook (§4.1): invoked for every kernel access to the
  // shared region with (paddr, is_write). Used by tests to verify that the
  // switch path touches a deterministic, input-independent set of lines
  // (Requirement 3).
  using SharedTouchProbe = std::function<void(hw::PAddr, bool)>;
  void SetSharedTouchProbe(SharedTouchProbe probe) { shared_probe_ = std::move(probe); }

  // Used by UserApi: the TCB currently executing on the core.
  TcbObj& CurrentTcbRef(hw::CoreId core);

  // --- time-protection contract checking (taint mode only) ----------------

  // Non-null iff taint tracking was enabled when this kernel was built.
  ContractChecker* contract_checker() { return checker_.get(); }
  // Declares a domain's LLC colour allocation to the checker (no-op when
  // taint tracking is off). Called by the domain manager on CreateDomain.
  void RegisterDomainColours(DomainId domain, const std::set<std::size_t>& colours);

 private:
  friend class UserApi;
  friend class ContractChecker;

  struct CoreState {
    ObjId cur_tcb = kNullObj;
    ObjId cur_image = kNullObj;
    DomainId cur_domain = 0;
    hw::Cycles last_tick_time = 0;
    hw::Cycles last_switch_cost = 0;
    std::vector<DomainId> schedule{0};
    std::size_t schedule_pos = 0;
  };

  // --- cost model (kernel execution simulated on the machine) -------------
  // Fixed mode-switch (trap) costs.
  static constexpr hw::Cycles kTrapInCycles = 80;
  static constexpr hw::Cycles kTrapOutCycles = 40;

  void ExecText(hw::CoreId core, KernelOp op);
  void TouchData(hw::CoreId core, hw::PAddr paddr, std::size_t bytes, bool write);
  void TouchStack(hw::CoreId core, std::size_t bytes, bool write);

  // The one syscall frame, and so each syscall's whole kernel-image
  // footprint (§5.3.1): trap in, entry text and a 192 B stack write, the
  // op's text (none when `op` is empty), `body`, then exit text, a 64 B
  // stack read and trap out on every path `body` returns by. A template,
  // so the body inlines: no std::function or allocation per syscall.
  template <typename Body>
  SyscallResult Syscall(hw::CoreId core, std::optional<KernelOp> op, Body&& body) {
    hw::Core& cpu = machine_.core(core);
    cpu.AdvanceCycles(kTrapInCycles);
    ExecText(core, KernelOp::kEntry);
    TouchStack(core, 192, true);
    if (op.has_value()) {
      ExecText(core, *op);
    }
    const SyscallResult r = body();
    ExecText(core, KernelOp::kExit);
    TouchStack(core, 64, false);
    cpu.AdvanceCycles(kTrapOutCycles);
    return r;
  }

  // --- scheduling internals ------------------------------------------------
  void HandleTick(hw::CoreId core);
  void HandleDeviceIrq(hw::CoreId core, hw::IrqLine line);
  // The bold steps of §4.3 when the kernel image changes. The preemption
  // path copies the live stack frames; the direct-IPC path only switches
  // the stack pointer (`copy_stack=false`).
  void KernelSwitch(hw::CoreId core, ObjId from_image, ObjId to_image,
                    bool copy_stack = true);
  void FlushOnCoreState(hw::CoreId core);
  void FullFlush(hw::CoreId core);
  void PrefetchSharedData(hw::CoreId core);
  void SwitchToThread(hw::CoreId core, ObjId tcb);
  ObjId PickThread(hw::CoreId core, DomainId domain);
  void MakeRunnable(ObjId tcb);
  void MakeBlocked(ObjId tcb, ThreadState state, ObjId on);
  void RescheduleCore(hw::CoreId core);
  ObjId IdleThreadFor(DomainId domain);

  // IRQ partitioning helpers (Requirement 5).
  void MaskForSwitch(hw::CoreId core);
  void UnmaskForImage(hw::CoreId core, ObjId image);

  // Manual L1 flush via loads / jump chain (x86, §4.3).
  void ManualL1DFlush(hw::CoreId core);
  void ManualL1IFlush(hw::CoreId core);

  // --- capability helpers ---------------------------------------------------
  // The capability at `idx` if it names a live object of `type`, else null.
  const Capability* Check(CSpace& cspace, CapIdx idx, ObjectType type);
  // Check() in the cspace of `core`'s current thread (null if it has none).
  const Capability* CheckCurrent(hw::CoreId core, CapIdx idx, ObjectType type);
  // Inserts a capability to `obj` with `rights` and the object's current
  // generation into `cspace`.
  CapIdx MintCap(CSpace& cspace, ObjId obj, ObjectType type, CapRights rights);
  // Blocks `core`'s current thread in `state` on `on` and reschedules: the
  // kWouldBlock return of Wait, Call, Recv and Send.
  SyscallResult BlockCurrent(hw::CoreId core, ThreadState state, ObjId on);

  // --- object creation (untyped.cpp) ----------------------------------------
  // Creates a TCB, endpoint, notification or vspace whose metadata starts
  // at `base`, charging the metadata touches both retype syscalls share. A
  // vspace takes its interior page-table frames from `vspace_frames` (none
  // when null). Returns kNullObj for any other type.
  ObjId CreateMetadataObject(hw::CoreId core, ObjectType type, hw::PAddr base,
                             FrameAllocator vspace_frames);

  // --- boot (boot.cpp) ------------------------------------------------------
  void Boot();
  ObjId CreateKernelImageObject(hw::PAddr base, bool boot_image);
  ObjId CreateIdleThread(ObjId image, hw::PAddr metadata, hw::CoreId affinity);

  hw::Machine& machine_;
  KernelConfig config_;

  // Fault-injection latches (src/faults): disarmed no-ops unless a plan
  // naming the site was installed before this kernel was constructed.
  faults::FaultSite fault_flush_l1d_;
  faults::FaultSite fault_flush_l1i_;
  faults::FaultSite fault_flush_tlb_;
  faults::FaultSite fault_flush_bp_;
  faults::FaultSite fault_flush_llc_;
  faults::FaultSite fault_pad_truncate_;

  ObjectTable objects_;
  Scheduler scheduler_;
  SharedDataLayout shared_data_;
  BootInfo boot_info_;
  std::vector<CoreState> core_state_;

  ObjId boot_image_ = kNullObj;
  hw::PAddr flush_buffer_base_ = 0;  // per-core manual-flush buffers (x86)
  hw::Asid next_asid_ = 1;
  KernelImageId next_image_id_ = 1;
  std::uint64_t domain_switches_ = 0;
  std::unordered_map<DomainId, ObjId> domain_image_;
  SharedTouchProbe shared_probe_;
  std::vector<std::unique_ptr<UserProgram>> kernel_owned_programs_;  // idle threads
  std::vector<std::unique_ptr<UserApi>> apis_;  // one per core
  std::unique_ptr<ContractChecker> checker_;    // taint mode only
};

// The interface user programs see: hardware access plus syscalls, all
// charged to the owning core. The hardware entry points are inline
// forwarders onto a cached Core pointer — they sit on the simulator's
// hottest path and must not cost a cross-TU call per memory operation.
class UserApi {
 public:
  UserApi(Kernel& kernel, hw::CoreId core);

  // Hardware (user mode).
  hw::Cycles Read(hw::VAddr va) { return hw_core_->Access(va, hw::AccessKind::kRead); }
  hw::Cycles Write(hw::VAddr va) { return hw_core_->Access(va, hw::AccessKind::kWrite); }
  hw::Cycles Fetch(hw::VAddr va) { return hw_core_->Access(va, hw::AccessKind::kFetch); }
  // Batched variants: identical state evolution and cost to calling the
  // single-op form once per element, minus the per-access dispatch (the
  // prime/probe/traverse inner loops of the attacks and workloads).
  hw::Cycles ReadBatch(std::span<const hw::VAddr> vas) {
    return hw_core_->AccessBatch(vas, hw::AccessKind::kRead);
  }
  hw::Cycles WriteBatch(std::span<const hw::VAddr> vas) {
    return hw_core_->AccessBatch(vas, hw::AccessKind::kWrite);
  }
  hw::Cycles FetchBatch(std::span<const hw::VAddr> vas) {
    return hw_core_->AccessBatch(vas, hw::AccessKind::kFetch);
  }
  hw::Cycles AccessBatch(std::span<const hw::MemOp> ops) { return hw_core_->AccessBatch(ops); }
  hw::Cycles Branch(hw::VAddr pc, hw::VAddr target, bool taken, bool conditional = true) {
    return hw_core_->Branch(pc, target, taken, conditional);
  }
  hw::Cycles Now() const { return hw_core_->now(); }
  const hw::PerfCounters& Counters() const { return hw_core_->counters(); }
  void Compute(hw::Cycles cycles) { hw_core_->AdvanceCycles(cycles); }

  // Syscalls.
  SyscallResult Signal(CapIdx cap) { return kernel_.SysSignal(core_, cap); }
  SyscallResult Wait(CapIdx cap) { return kernel_.SysWait(core_, cap); }
  SyscallResult Poll(CapIdx cap) { return kernel_.SysPoll(core_, cap); }
  SyscallResult SetPriority(CapIdx tcb, std::uint8_t prio) {
    return kernel_.SysSetPriority(core_, tcb, prio);
  }
  SyscallResult Yield() { return kernel_.SysYield(core_); }
  SyscallResult Call(CapIdx ep, std::uint64_t msg) { return kernel_.SysCall(core_, ep, msg); }
  SyscallResult ReplyRecv(CapIdx ep, std::uint64_t reply) {
    return kernel_.SysReplyRecv(core_, ep, reply);
  }
  SyscallResult Recv(CapIdx ep) { return kernel_.SysRecv(core_, ep); }
  SyscallResult Send(CapIdx ep, std::uint64_t msg) { return kernel_.SysSend(core_, ep, msg); }
  SyscallResult SetTimer(CapIdx timer, hw::Cycles rel) {
    return kernel_.SysSetTimer(core_, timer, rel);
  }

  hw::CoreId core_id() const { return core_; }
  Kernel& kernel() { return kernel_; }

 private:
  Kernel& kernel_;
  hw::CoreId core_;
  hw::Core* hw_core_;  // kernel_.machine().core(core_), resolved once
};

}  // namespace tp::kernel

#endif  // TP_KERNEL_KERNEL_HPP_
