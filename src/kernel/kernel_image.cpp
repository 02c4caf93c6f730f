// Kernel_Image operations: clone, destroy, interrupt association and
// switch-latency configuration (paper §4.1, §4.2, §4.4).
#include "kernel/kernel.hpp"

namespace tp::kernel {

namespace {

// Idle threads burn time without touching memory.
class IdleProgram final : public UserProgram {
 public:
  void Step(UserApi& api) override { api.Compute(200); }
};

}  // namespace

ObjId Kernel::CreateIdleThread(ObjId image, hw::PAddr metadata, hw::CoreId affinity) {
  kernel_owned_programs_.push_back(std::make_unique<IdleProgram>());
  TcbObj t;
  t.metadata_paddr = metadata;
  t.kernel_image = image;
  t.is_idle = true;
  t.state = ThreadState::kIdle;
  t.affinity = affinity;
  t.program = kernel_owned_programs_.back().get();
  return objects_.Create(ObjectType::kTcb, std::move(t));
}

SyscallResult Kernel::KernelClone(hw::CoreId core, CSpace& cspace, CapIdx dest_image,
                                  CapIdx src_image, CapIdx kernel_memory) {
  return Syscall(core, KernelOp::kClone, [&]() -> SyscallResult {
    const Capability* dcap = Check(cspace, dest_image, ObjectType::kKernelImage);
    const Capability* scap = Check(cspace, src_image, ObjectType::kKernelImage);
    const Capability* mcap = Check(cspace, kernel_memory, ObjectType::kKernelMemory);
    if (dcap == nullptr || scap == nullptr || mcap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    if (!scap->rights.clone) {
      return {SyscallError::kInsufficientRights};
    }
    KernelImageObj& src = objects_.As<KernelImageObj>(scap->obj);
    KernelImageObj& dst = objects_.As<KernelImageObj>(dcap->obj);
    KernelMemoryObj& mem = objects_.As<KernelMemoryObj>(mcap->obj);
    if (!src.initialised || src.zombie || dst.initialised || mem.bound_image != kNullObj) {
      return {SyscallError::kInvalidArgument};
    }
    if (mem.size_bytes() < ImageBytes()) {
      return {SyscallError::kInsufficientMemory};
    }

    // The clone lives entirely in the caller-supplied (coloured) frames.
    dst.frames = mem.frames;
    dst.text_off = 0;
    dst.text_size = src.text_size;
    dst.data_off = dst.text_off + src.text_size;
    dst.data_size = src.data_size;
    dst.stack_off = dst.data_off + src.data_size;
    dst.stack_size = src.stack_size;
    dst.pt_off = dst.stack_off + src.stack_size;
    dst.pt_size = src.pt_size;

    std::size_t line = machine_.config().llc.line_size;
    hw::Core& cpu = machine_.core(core);
    // Copy kernel text and read-only data (incl. interrupt vectors, §4.1).
    for (std::size_t off = 0; off < src.text_size; off += line) {
      cpu.Access(hw::KernelVaddrFor(src.PaddrOf(src.text_off + off)), hw::AccessKind::kRead);
      cpu.Access(hw::KernelVaddrFor(dst.PaddrOf(dst.text_off + off)), hw::AccessKind::kWrite);
    }
    // Replicate global data.
    for (std::size_t off = 0; off < src.data_size; off += line) {
      cpu.Access(hw::KernelVaddrFor(src.PaddrOf(src.data_off + off)), hw::AccessKind::kRead);
      cpu.Access(hw::KernelVaddrFor(dst.PaddrOf(dst.data_off + off)), hw::AccessKind::kWrite);
    }
    // Fresh stack and page tables (initialised, not copied).
    for (std::size_t off = 0; off < src.stack_size; off += line) {
      cpu.Access(hw::KernelVaddrFor(dst.PaddrOf(dst.stack_off + off)), hw::AccessKind::kWrite);
    }
    for (std::size_t off = 0; off < src.pt_size; off += line) {
      cpu.Access(hw::KernelVaddrFor(dst.PaddrOf(dst.pt_off + off)), hw::AccessKind::kWrite);
    }

    // New kernel address space with its own ASID (§4.1 step 2).
    dst.window = std::make_unique<AddressSpace>(
        AddressSpace::KernelWindow(next_asid_++, dst.RegionFrames(dst.pt_off, dst.pt_size)));
    TouchData(core, shared_data_.At(SharedDataLayout::kAsidTable), 64, true);

    // Per-core idle threads so the new kernel can always run something.
    std::size_t idle_off = dst.pt_off + dst.pt_size;
    dst.idle_threads.clear();
    for (std::size_t c = 0; c < machine_.num_cores(); ++c) {
      dst.idle_threads.push_back(CreateIdleThread(
          dcap->obj, dst.PaddrOf(idle_off + c * kIdleTcbBytes), static_cast<hw::CoreId>(c)));
    }

    dst.parent = scap->obj;
    dst.initialised = true;
    mem.bound_image = dcap->obj;
    return {SyscallError::kOk, dcap->obj};
  });
}

SyscallResult Kernel::KernelDestroy(hw::CoreId core, CSpace& cspace, CapIdx image) {
  return Syscall(core, KernelOp::kDestroy, [&]() -> SyscallResult {
    const Capability* icap = Check(cspace, image, ObjectType::kKernelImage);
    if (icap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    ObjId target = icap->obj;
    KernelImageObj& img = objects_.As<KernelImageObj>(target);
    if (img.is_boot_image) {
      // The initial kernel's memory is never handed to userland (§4.4), so
      // there is always a kernel with an idle thread left.
      return {SyscallError::kInsufficientRights};
    }

    // Turn the kernel into a zombie, then stall every core it runs on
    // (system_stall IPIs, analogous to TLB shoot-down, §4.4).
    img.zombie = true;
    TouchData(core, shared_data_.At(SharedDataLayout::kIpiBarrier), 8, true);
    const KernelImageObj& boot = objects_.As<KernelImageObj>(boot_image_);
    for (std::size_t c = 0; c < machine_.num_cores(); ++c) {
      if ((img.running_cores & (std::uint64_t{1} << c)) == 0) {
        continue;
      }
      hw::Core& cpu = machine_.core(c);
      cpu.AdvanceCycles(300);  // IPI delivery + handler
      if (core_state_[c].cur_image == target) {
        SwitchToThread(static_cast<hw::CoreId>(c), boot.idle_threads.at(c));
      }
      cpu.FlushTlbAll();  // TLB_invalidate IPI for the dying ASID
    }

    // Suspend all threads bound to the target kernel.
    for (ObjId id = 1; id < objects_.size(); ++id) {
      if (!objects_.IsLive(id) || objects_.Get(id).type != ObjectType::kTcb) {
        continue;
      }
      TcbObj& t = objects_.As<TcbObj>(id);
      if (t.kernel_image == target && !t.is_idle) {
        MakeBlocked(id, ThreadState::kInactive, kNullObj);
      }
    }

    // Release the idle threads and the Kernel_Memory binding.
    for (ObjId idle : img.idle_threads) {
      objects_.Destroy(idle);
    }
    for (ObjId id = 1; id < objects_.size(); ++id) {
      if (objects_.IsLive(id) && objects_.Get(id).type == ObjectType::kKernelMemory) {
        KernelMemoryObj& m = objects_.As<KernelMemoryObj>(id);
        if (m.bound_image == target) {
          m.bound_image = kNullObj;
        }
      }
    }

    // Recursively destroy kernels cloned from this one (revocation semantics).
    for (ObjId id = 1; id < objects_.size(); ++id) {
      if (!objects_.IsLive(id) || objects_.Get(id).type != ObjectType::kKernelImage) {
        continue;
      }
      if (objects_.As<KernelImageObj>(id).parent == target) {
        CSpace scratch;
        KernelDestroy(core, scratch,
                      MintCap(scratch, id, ObjectType::kKernelImage, CapRights::NoClone()));
      }
    }

    objects_.Destroy(target);
    for (auto& [dom, im] : domain_image_) {
      if (im == target) {
        im = boot_image_;
      }
    }
    return {};
  });
}

SyscallResult Kernel::KernelSetInt(hw::CoreId core, CSpace& cspace, CapIdx image,
                                   CapIdx irq_handler) {
  return Syscall(core, KernelOp::kIrq, [&]() -> SyscallResult {
    const Capability* icap = Check(cspace, image, ObjectType::kKernelImage);
    const Capability* hcap = Check(cspace, irq_handler, ObjectType::kIrqHandler);
    if (icap == nullptr || hcap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    if (!icap->rights.write) {
      return {SyscallError::kInsufficientRights};
    }
    KernelImageObj& img = objects_.As<KernelImageObj>(icap->obj);
    const IrqHandlerObj& h = objects_.As<IrqHandlerObj>(hcap->obj);
    // Associating an IRQ with multiple kernels is valid but will leak
    // (partitioning is policy, §4.2); the kernel does not police it.
    img.irqs.insert(h.line);
    TouchData(core, shared_data_.At(SharedDataLayout::kIrqStateTable + h.line * 16), 16, true);
    return {};
  });
}

SyscallResult Kernel::KernelSetPad(hw::CoreId core, CSpace& cspace, CapIdx image,
                                   hw::Cycles pad) {
  return Syscall(core, std::nullopt, [&]() -> SyscallResult {
    const Capability* icap = Check(cspace, image, ObjectType::kKernelImage);
    if (icap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    if (!icap->rights.write) {
      return {SyscallError::kInsufficientRights};
    }
    // Policy-free: the pad value is user-configured (a safe value needs a
    // WCET analysis the kernel cannot do, §4.3).
    objects_.As<KernelImageObj>(icap->obj).pad_cycles = pad;
    return {};
  });
}

}  // namespace tp::kernel
