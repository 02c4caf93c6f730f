// Untyped memory and retype: userland supplies all kernel metadata memory
// (paper §2.4 / Fig. 2), which is what lets page colouring of user memory
// partition dynamic kernel data as a side effect.
#include "kernel/kernel.hpp"

namespace tp::kernel {

namespace {

std::size_t ObjectBytes(ObjectType type, std::size_t requested) {
  switch (type) {
    case ObjectType::kFrame:
      return hw::kPageSize;
    case ObjectType::kTcb:
      return 1024;
    case ObjectType::kEndpoint:
    case ObjectType::kNotification:
      return 64;
    case ObjectType::kVSpace:
      return hw::kPageSize;  // root table frame
    case ObjectType::kKernelImage:
      return 256;  // metadata only; regions come from Kernel_Memory at clone
    case ObjectType::kKernelMemory:
    case ObjectType::kUntyped:
      return requested;
    default:
      return 0;
  }
}

std::size_t AlignmentFor(ObjectType type) {
  switch (type) {
    case ObjectType::kFrame:
    case ObjectType::kVSpace:
    case ObjectType::kKernelMemory:
    case ObjectType::kUntyped:
      return hw::kPageSize;
    default:
      return 64;
  }
}

}  // namespace

SyscallResult Kernel::Retype(hw::CoreId core, CSpace& cspace, CapIdx untyped, ObjectType type,
                             std::size_t size_bytes, CapIdx* out_cap) {
  return Syscall(core, KernelOp::kRetype, [&]() -> SyscallResult {
    const Capability* ucap = Check(cspace, untyped, ObjectType::kUntyped);
    std::size_t bytes = ObjectBytes(type, size_bytes);
    if (ucap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    if (bytes == 0 && type != ObjectType::kKernelMemory) {
      // Kernel_Memory may start empty: the cloner assembles it from coloured
      // frames via KernelMemoryAddFrame.
      return {SyscallError::kInvalidArgument};
    }
    UntypedObj& ut = objects_.As<UntypedObj>(ucap->obj);
    std::size_t align = AlignmentFor(type);
    std::size_t mark = (ut.watermark + align - 1) / align * align;
    if (mark + bytes > ut.size_bytes) {
      return {SyscallError::kInsufficientMemory};
    }
    hw::PAddr base = ut.base + mark;
    ut.watermark = mark + bytes;

    ObjId id = kNullObj;
    switch (type) {
      case ObjectType::kFrame:
        id = objects_.Create(type, FrameObj{base});
        TouchData(core, base, bytes, true);  // retype zeroes frames
        break;
      case ObjectType::kTcb:
      case ObjectType::kEndpoint:
      case ObjectType::kNotification:
        id = CreateMetadataObject(core, type, base, nullptr);
        break;
      case ObjectType::kVSpace: {
        // Interior page-table frames come from the same untyped pool the
        // vspace was retyped from, keeping them in the domain's colours.
        ObjId ut_id = ucap->obj;
        FrameAllocator alloc = [this, ut_id]() -> std::optional<hw::PAddr> {
          UntypedObj& pool = objects_.As<UntypedObj>(ut_id);
          std::size_t m = (pool.watermark + hw::kPageSize - 1) / hw::kPageSize * hw::kPageSize;
          if (m + hw::kPageSize > pool.size_bytes) {
            return std::nullopt;
          }
          pool.watermark = m + hw::kPageSize;
          return pool.base + m;
        };
        id = CreateMetadataObject(core, type, base, std::move(alloc));
        break;
      }
      case ObjectType::kKernelImage: {
        KernelImageObj k;
        k.image_id = next_image_id_++;
        id = objects_.Create(type, std::move(k));
        TouchData(core, base, bytes, true);
        break;
      }
      case ObjectType::kKernelMemory: {
        KernelMemoryObj m;
        for (std::size_t off = 0; off < bytes; off += hw::kPageSize) {
          m.frames.push_back(base + off);
        }
        id = objects_.Create(type, std::move(m));
        break;
      }
      case ObjectType::kUntyped: {
        id = objects_.Create(type, UntypedObj{base, bytes, 0});
        break;
      }
      default:
        return {SyscallError::kInvalidArgument};
    }
    if (out_cap == nullptr) {
      return {};
    }
    *out_cap = MintCap(cspace, id, type,
                       type == ObjectType::kKernelImage ? CapRights::All() : CapRights::NoClone());
    return {SyscallError::kOk, id};
  });
}

SyscallResult Kernel::RetypeInFrame(hw::CoreId core, CSpace& cspace, CapIdx frame,
                                    ObjectType type, CapIdx* out_cap) {
  return Syscall(core, KernelOp::kRetype, [&]() -> SyscallResult {
    const Capability* fcap = Check(cspace, frame, ObjectType::kFrame);
    if (fcap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    // A vspace's root table sits in the caller-supplied (coloured) frame:
    // every page walk reads the root PTE line, so an uncoloured root is
    // residual state any domain can reach. Interior frames come via
    // SetVSpaceAllocator.
    const ObjId id =
        CreateMetadataObject(core, type, objects_.As<FrameObj>(fcap->obj).base, nullptr);
    if (id == kNullObj) {
      return {SyscallError::kInvalidArgument};
    }
    if (out_cap == nullptr) {
      return {};
    }
    *out_cap = MintCap(cspace, id, type, CapRights::NoClone());
    return {SyscallError::kOk, id};
  });
}

ObjId Kernel::CreateMetadataObject(hw::CoreId core, ObjectType type, hw::PAddr base,
                                   FrameAllocator vspace_frames) {
  ObjId id = kNullObj;
  switch (type) {
    case ObjectType::kTcb: {
      TcbObj t;
      t.metadata_paddr = base;
      id = objects_.Create(type, std::move(t));
      TouchData(core, base, 512, true);
      break;
    }
    case ObjectType::kEndpoint: {
      EndpointObj e;
      e.metadata_paddr = base;
      id = objects_.Create(type, std::move(e));
      TouchData(core, base, 64, true);
      break;
    }
    case ObjectType::kNotification: {
      NotificationObj n;
      n.metadata_paddr = base;
      id = objects_.Create(type, std::move(n));
      TouchData(core, base, 64, true);
      break;
    }
    case ObjectType::kVSpace: {
      VSpaceObj v;
      v.metadata_paddr = base;
      v.space = std::make_unique<AddressSpace>(next_asid_++, base, std::move(vspace_frames));
      id = objects_.Create(type, std::move(v));
      TouchData(core, base, 1024, true);
      TouchData(core, shared_data_.At(SharedDataLayout::kAsidTable), 64, true);
      break;
    }
    default:
      break;
  }
  return id;
}

SyscallResult Kernel::KernelMemoryAddFrame(hw::CoreId core, CSpace& cspace, CapIdx kmem,
                                           CapIdx frame) {
  return Syscall(core, std::nullopt, [&]() -> SyscallResult {
    const Capability* mcap = Check(cspace, kmem, ObjectType::kKernelMemory);
    const Capability* fcap = Check(cspace, frame, ObjectType::kFrame);
    if (mcap == nullptr || fcap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    KernelMemoryObj& m = objects_.As<KernelMemoryObj>(mcap->obj);
    if (m.bound_image != kNullObj) {
      return {SyscallError::kInvalidArgument};  // already backing a kernel
    }
    m.frames.push_back(objects_.As<FrameObj>(fcap->obj).base);
    return {SyscallError::kOk, m.frames.size()};
  });
}

SyscallResult Kernel::SetVSpaceAllocator(CSpace& cspace, CapIdx vspace, FrameAllocator alloc) {
  SyscallResult r;
  const Capability* vcap = Check(cspace, vspace, ObjectType::kVSpace);
  if (vcap == nullptr) {
    r.error = SyscallError::kInvalidCap;
  } else {
    objects_.As<VSpaceObj>(vcap->obj).space->SetAllocator(std::move(alloc));
  }
  return r;
}

SyscallResult Kernel::MapFrame(hw::CoreId core, CSpace& cspace, CapIdx vspace, CapIdx frame,
                               hw::VAddr vaddr) {
  return Syscall(core, KernelOp::kMap, [&]() -> SyscallResult {
    const Capability* vcap = Check(cspace, vspace, ObjectType::kVSpace);
    const Capability* fcap = Check(cspace, frame, ObjectType::kFrame);
    if (vcap == nullptr || fcap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    if (hw::IsKernelAddress(vaddr)) {
      return {SyscallError::kInvalidArgument};
    }
    VSpaceObj& v = objects_.As<VSpaceObj>(vcap->obj);
    const FrameObj& f = objects_.As<FrameObj>(fcap->obj);
    if (!v.space->Map(vaddr, f.base)) {
      return {SyscallError::kInsufficientMemory};
    }
    // Page-table entry writes (walked frames are in the domain's pool).
    std::vector<hw::PAddr> path;
    v.space->WalkPath(vaddr, path);
    for (hw::PAddr pte : path) {
      TouchData(core, pte, 8, true);
    }
    return {};
  });
}

SyscallResult Kernel::ConfigureTcb(hw::CoreId core, CSpace& cspace, CapIdx tcb,
                                   const TcbSettings& settings) {
  return Syscall(core, std::nullopt, [&]() -> SyscallResult {
    const Capability* tcap = Check(cspace, tcb, ObjectType::kTcb);
    if (tcap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    TcbObj& t = objects_.As<TcbObj>(tcap->obj);
    TouchData(core, t.metadata_paddr, 256, true);

    if (settings.vspace != 0) {
      const Capability* vcap = Check(cspace, settings.vspace, ObjectType::kVSpace);
      if (vcap == nullptr) {
        return {SyscallError::kInvalidCap};
      }
      t.vspace = vcap->obj;
    }
    ObjId image = boot_image_;
    if (settings.kernel_image != 0) {
      const Capability* kcap = Check(cspace, settings.kernel_image, ObjectType::kKernelImage);
      if (kcap == nullptr) {
        return {SyscallError::kInvalidCap};
      }
      image = kcap->obj;
    }
    t.kernel_image = image;
    t.priority = settings.priority;
    t.domain = settings.domain;
    t.affinity = settings.affinity;
    t.program = settings.program;
    t.cspace = settings.cspace;

    // First thread configured for a domain binds the domain to its kernel.
    if (domain_image_.find(settings.domain) == domain_image_.end()) {
      domain_image_[settings.domain] = image;
    }
    return {};
  });
}

SyscallResult Kernel::ResumeTcb(hw::CoreId core, CSpace& cspace, CapIdx tcb) {
  return Syscall(core, std::nullopt, [&]() -> SyscallResult {
    const Capability* tcap = Check(cspace, tcb, ObjectType::kTcb);
    if (tcap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    TouchData(core, objects_.As<TcbObj>(tcap->obj).metadata_paddr, 64, true);
    MakeRunnable(tcap->obj);
    return {};
  });
}

SyscallResult Kernel::SpawnProcessEager(hw::CoreId core, CSpace& cspace, CapIdx untyped,
                                        std::size_t image_pages, std::size_t map_pages,
                                        CapIdx* out_vspace) {
  // Monolithic-kernel comparator for Table 7: create an address space, map
  // its working set eagerly, copy the executable image and zero the BSS —
  // the up-front work of fork+exec.
  CapIdx vspace_cap = 0;
  SyscallResult r = Retype(core, cspace, untyped, ObjectType::kVSpace, 0, &vspace_cap);
  if (!r.ok()) {
    return r;
  }
  std::size_t line = machine_.config().llc.line_size;
  const KernelImageObj& boot = objects_.As<KernelImageObj>(boot_image_);

  for (std::size_t p = 0; p < map_pages; ++p) {
    CapIdx frame_cap = 0;
    r = Retype(core, cspace, untyped, ObjectType::kFrame, 0, &frame_cap);
    if (!r.ok()) {
      return r;
    }
    hw::VAddr va = 0x400000 + p * hw::kPageSize;
    r = MapFrame(core, cspace, vspace_cap, frame_cap, va);
    if (!r.ok()) {
      return r;
    }
    const FrameObj& f =
        objects_.As<FrameObj>(cspace.At(frame_cap).obj);
    if (p < image_pages) {
      // Copy a page of "executable" from the boot image.
      hw::PAddr src = boot.PaddrOf(boot.text_off + (p * hw::kPageSize) % boot.text_size);
      for (std::size_t off = 0; off < hw::kPageSize; off += line) {
        TouchData(core, src + off, 8, false);
        TouchData(core, f.base + off, 8, true);
      }
    } else {
      // Zero BSS/heap pages.
      TouchData(core, f.base, hw::kPageSize, true);
    }
  }
  if (out_vspace != nullptr) {
    *out_vspace = vspace_cap;
  }
  return r;
}

}  // namespace tp::kernel
