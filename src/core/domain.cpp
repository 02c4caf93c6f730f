#include "core/domain.hpp"

#include <stdexcept>

namespace tp::core {

namespace {
constexpr hw::CoreId kInitCore = 0;
}

DomainManager::DomainManager(kernel::Kernel& kernel)
    : kernel_(kernel),
      cspace_(kernel.boot_info().root_cspace),
      untyped_(kernel.boot_info().untyped),
      pool_(kernel, cspace_, untyped_) {}

kernel::CapIdx DomainManager::CloneKernelFromPool(const std::set<std::size_t>& colours,
                                                  kernel::CapIdx source_image) {
  kernel::CapIdx dest = 0;
  kernel::SyscallResult r = kernel_.Retype(kInitCore, *cspace_, untyped_,
                                           kernel::ObjectType::kKernelImage, 0, &dest);
  if (!r.ok()) {
    throw std::runtime_error("DomainManager: cannot retype Kernel_Image");
  }
  kernel::CapIdx kmem = 0;
  r = kernel_.Retype(kInitCore, *cspace_, untyped_, kernel::ObjectType::kKernelMemory, 0, &kmem);
  if (!r.ok()) {
    throw std::runtime_error("DomainManager: cannot retype Kernel_Memory");
  }

  std::size_t pages = (kernel_.ImageBytes() + hw::kPageSize - 1) / hw::kPageSize;
  for (std::size_t p = 0; p < pages; ++p) {
    std::optional<kernel::CapIdx> frame = pool_.TakeFrame(colours);
    if (!frame.has_value()) {
      throw std::runtime_error("DomainManager: out of coloured frames for kernel clone");
    }
    r = kernel_.KernelMemoryAddFrame(kInitCore, *cspace_, kmem, *frame);
    if (!r.ok()) {
      throw std::runtime_error("DomainManager: Kernel_Memory add frame failed");
    }
  }

  r = kernel_.KernelClone(kInitCore, *cspace_, dest, source_image, kmem);
  if (!r.ok()) {
    throw std::runtime_error("DomainManager: Kernel_Clone failed");
  }
  return dest;
}

Domain& DomainManager::CreateDomain(const DomainOptions& options) {
  auto domain = std::make_unique<Domain>();
  domain->id = options.id;
  domain->colours = options.colours;
  domain->cspace = std::make_shared<kernel::CSpace>();

  if (kernel_.config().clone_support) {
    domain->kernel_image =
        CloneKernelFromPool(options.colours, kernel_.boot_info().kernel_image);
  } else {
    // Single shared kernel: hand out a derived cap without the clone right.
    domain->kernel_image =
        cspace_->Derive(kernel_.boot_info().kernel_image, kernel::CapRights::NoClone());
  }

  kernel_.BindDomainToImage(kInitCore, *cspace_, options.id, domain->kernel_image);
  kernel_.RegisterDomainColours(options.id, options.colours);

  if (options.pad_cycles > 0) {
    kernel::SyscallResult r = kernel_.KernelSetPad(
        kInitCore, *cspace_,
        kernel_.config().clone_support ? domain->kernel_image
                                       : kernel_.boot_info().kernel_image,
        options.pad_cycles);
    if (!r.ok()) {
      throw std::runtime_error("DomainManager: Kernel_SetPad failed");
    }
  }

  for (std::size_t t : options.device_timers) {
    kernel::SyscallResult r =
        kernel_.KernelSetInt(kInitCore, *cspace_, domain->kernel_image,
                             kernel_.boot_info().irq_handlers.at(t));
    if (!r.ok()) {
      throw std::runtime_error("DomainManager: Kernel_SetInt failed");
    }
  }

  // Domain vspace with root and interior page tables drawn from the
  // domain's coloured pool.
  domain->vspace = MakeColouredVSpace(options.colours);

  domains_.push_back(std::move(domain));
  return *domains_.back();
}

kernel::CapIdx DomainManager::MakeColouredVSpace(const std::set<std::size_t>& colours) {
  std::optional<kernel::CapIdx> root = pool_.TakeFrame(colours);
  if (!root.has_value()) {
    throw std::runtime_error("DomainManager: out of coloured frames for VSpace root");
  }
  kernel::CapIdx vspace = 0;
  kernel::SyscallResult r = kernel_.RetypeInFrame(kInitCore, *cspace_, *root,
                                                  kernel::ObjectType::kVSpace, &vspace);
  if (!r.ok()) {
    throw std::runtime_error("DomainManager: cannot retype VSpace");
  }
  std::set<std::size_t> cs = colours;
  kernel_.SetVSpaceAllocator(*cspace_, vspace,
                             [this, cs]() -> std::optional<hw::PAddr> {
                               std::optional<kernel::CapIdx> f = pool_.TakeFrame(cs);
                               if (!f.has_value()) {
                                 return std::nullopt;
                               }
                               return pool_.FrameBase(*f);
                             });
  return vspace;
}

MappedBuffer DomainManager::AllocBuffer(Domain& domain, std::size_t bytes) {
  MappedBuffer buf;
  buf.base = domain.next_vaddr;
  buf.bytes = hw::PageAlignUp(bytes);
  domain.next_vaddr += buf.bytes + hw::kPageSize;  // guard page

  for (std::size_t off = 0; off < buf.bytes; off += hw::kPageSize) {
    std::optional<kernel::CapIdx> frame = pool_.TakeFrame(domain.colours);
    if (!frame.has_value()) {
      throw std::runtime_error("DomainManager: out of coloured frames for buffer");
    }
    hw::VAddr va = buf.base + off;
    kernel::SyscallResult r = kernel_.MapFrame(kInitCore, *cspace_, domain.vspace, *frame, va);
    if (!r.ok()) {
      throw std::runtime_error("DomainManager: MapFrame failed");
    }
    buf.pages.emplace_back(va, pool_.FrameBase(*frame));
  }
  return buf;
}

kernel::CapIdx DomainManager::CreateVSpace(Domain& domain) {
  return MakeColouredVSpace(domain.colours);
}

kernel::CapIdx DomainManager::StartThread(Domain& domain, kernel::UserProgram* program,
                                          std::uint8_t priority, hw::CoreId core,
                                          kernel::CapIdx vspace) {
  std::optional<kernel::CapIdx> frame = pool_.TakeFrame(domain.colours);
  if (!frame.has_value()) {
    throw std::runtime_error("DomainManager: out of frames for TCB");
  }
  kernel::CapIdx tcb = 0;
  kernel::SyscallResult r =
      kernel_.RetypeInFrame(kInitCore, *cspace_, *frame, kernel::ObjectType::kTcb, &tcb);
  if (!r.ok()) {
    throw std::runtime_error("DomainManager: TCB retype failed");
  }

  kernel::TcbSettings settings;
  settings.vspace = vspace != 0 ? vspace : domain.vspace;
  settings.priority = priority;
  settings.domain = domain.id;
  settings.kernel_image = domain.kernel_image;
  settings.affinity = core;
  settings.program = program;
  settings.cspace = domain.cspace;
  r = kernel_.ConfigureTcb(kInitCore, *cspace_, tcb, settings);
  if (!r.ok()) {
    throw std::runtime_error("DomainManager: ConfigureTcb failed");
  }
  r = kernel_.ResumeTcb(kInitCore, *cspace_, tcb);
  if (!r.ok()) {
    throw std::runtime_error("DomainManager: ResumeTcb failed");
  }
  return tcb;
}

kernel::CapIdx DomainManager::GrantCap(Domain& domain, kernel::CapIdx manager_cap) {
  kernel::Capability cap = cspace_->At(manager_cap);
  cap.rights.clone = false;
  return domain.cspace->Insert(cap);
}

kernel::CapIdx DomainManager::CreateNotification(Domain& domain) {
  std::optional<kernel::CapIdx> frame = pool_.TakeFrame(domain.colours);
  if (!frame.has_value()) {
    throw std::runtime_error("DomainManager: out of frames for notification");
  }
  kernel::CapIdx cap = 0;
  kernel::SyscallResult r = kernel_.RetypeInFrame(kInitCore, *cspace_, *frame,
                                                  kernel::ObjectType::kNotification, &cap);
  if (!r.ok()) {
    throw std::runtime_error("DomainManager: notification retype failed");
  }
  return cap;
}

kernel::CapIdx DomainManager::CreateEndpoint(Domain& domain) {
  std::optional<kernel::CapIdx> frame = pool_.TakeFrame(domain.colours);
  if (!frame.has_value()) {
    throw std::runtime_error("DomainManager: out of frames for endpoint");
  }
  kernel::CapIdx cap = 0;
  kernel::SyscallResult r = kernel_.RetypeInFrame(kInitCore, *cspace_, *frame,
                                                  kernel::ObjectType::kEndpoint, &cap);
  if (!r.ok()) {
    throw std::runtime_error("DomainManager: endpoint retype failed");
  }
  return cap;
}

Domain& DomainManager::Subdivide(Domain& parent, kernel::DomainId new_id,
                                 const std::set<std::size_t>& colours) {
  if (!kernel_.config().clone_support) {
    throw std::runtime_error("DomainManager: subdivision requires a clone-capable kernel");
  }
  for (std::size_t c : colours) {
    if (!parent.colours.empty() && parent.colours.count(c) == 0) {
      throw std::runtime_error("DomainManager: sub-domain colour outside parent's pool");
    }
  }
  auto domain = std::make_unique<Domain>();
  domain->id = new_id;
  domain->colours = colours;
  domain->cspace = std::make_shared<kernel::CSpace>();
  // Cloned from the *parent's* kernel: revoking the parent revokes this.
  domain->kernel_image = CloneKernelFromPool(colours, parent.kernel_image);
  kernel_.BindDomainToImage(kInitCore, *cspace_, new_id, domain->kernel_image);
  kernel_.RegisterDomainColours(new_id, colours);

  domain->vspace = MakeColouredVSpace(colours);
  domains_.push_back(std::move(domain));
  return *domains_.back();
}

kernel::SyscallResult DomainManager::DestroyDomainKernel(Domain& domain) {
  if (!kernel_.config().clone_support) {
    return kernel::SyscallResult{kernel::SyscallError::kInvalidArgument, 0};
  }
  return kernel_.KernelDestroy(kInitCore, *cspace_, domain.kernel_image);
}

}  // namespace tp::core
