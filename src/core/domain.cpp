#include "core/domain.hpp"

#include <stdexcept>
#include <string>

namespace tp::core {

namespace {

constexpr hw::CoreId kInitCore = 0;

// Throws unless the init process's syscall `what` succeeded.
void Require(const kernel::SyscallResult& r, const char* what) {
  if (!r.ok()) {
    throw std::runtime_error(std::string("DomainManager: ") + what + " failed");
  }
}

}  // namespace

DomainManager::DomainManager(kernel::Kernel& kernel)
    : kernel_(kernel),
      cspace_(kernel.boot_info().root_cspace),
      untyped_(kernel.boot_info().untyped),
      pool_(kernel, cspace_, untyped_) {}

kernel::CapIdx DomainManager::TakeFrame(const std::set<std::size_t>& colours,
                                        const char* what) {
  std::optional<kernel::CapIdx> frame = pool_.TakeFrame(colours);
  if (!frame.has_value()) {
    throw std::runtime_error(std::string("DomainManager: out of coloured frames for ") + what);
  }
  return *frame;
}

kernel::CapIdx DomainManager::RetypeInColours(const std::set<std::size_t>& colours,
                                              kernel::ObjectType type, const char* what) {
  const kernel::CapIdx frame = TakeFrame(colours, what);
  kernel::CapIdx cap = 0;
  Require(kernel_.RetypeInFrame(kInitCore, *cspace_, frame, type, &cap), what);
  return cap;
}

kernel::CapIdx DomainManager::CloneKernelFromPool(const std::set<std::size_t>& colours,
                                                  kernel::CapIdx source_image) {
  kernel::CapIdx dest = 0;
  Require(kernel_.Retype(kInitCore, *cspace_, untyped_, kernel::ObjectType::kKernelImage, 0, &dest),
          "Kernel_Image retype");
  kernel::CapIdx kmem = 0;
  Require(
      kernel_.Retype(kInitCore, *cspace_, untyped_, kernel::ObjectType::kKernelMemory, 0, &kmem),
      "Kernel_Memory retype");

  std::size_t pages = (kernel_.ImageBytes() + hw::kPageSize - 1) / hw::kPageSize;
  for (std::size_t p = 0; p < pages; ++p) {
    const kernel::CapIdx frame = TakeFrame(colours, "kernel clone");
    Require(kernel_.KernelMemoryAddFrame(kInitCore, *cspace_, kmem, frame),
            "Kernel_Memory add frame");
  }

  Require(kernel_.KernelClone(kInitCore, *cspace_, dest, source_image, kmem), "Kernel_Clone");
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
    const kernel::CapIdx image =
        kernel_.config().clone_support ? domain->kernel_image : kernel_.boot_info().kernel_image;
    Require(kernel_.KernelSetPad(kInitCore, *cspace_, image, options.pad_cycles), "Kernel_SetPad");
  }

  for (std::size_t t : options.device_timers) {
    Require(kernel_.KernelSetInt(kInitCore, *cspace_, domain->kernel_image,
                                 kernel_.boot_info().irq_handlers.at(t)),
            "Kernel_SetInt");
  }

  // Domain vspace with root and interior page tables drawn from the
  // domain's coloured pool.
  domain->vspace = MakeColouredVSpace(options.colours);

  domains_.push_back(std::move(domain));
  return *domains_.back();
}

kernel::CapIdx DomainManager::MakeColouredVSpace(const std::set<std::size_t>& colours) {
  const kernel::CapIdx vspace =
      RetypeInColours(colours, kernel::ObjectType::kVSpace, "VSpace root retype");
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
    const kernel::CapIdx frame = TakeFrame(domain.colours, "buffer");
    hw::VAddr va = buf.base + off;
    Require(kernel_.MapFrame(kInitCore, *cspace_, domain.vspace, frame, va), "MapFrame");
    buf.pages.emplace_back(va, pool_.FrameBase(frame));
  }
  return buf;
}

kernel::CapIdx DomainManager::CreateVSpace(Domain& domain) {
  return MakeColouredVSpace(domain.colours);
}

kernel::CapIdx DomainManager::StartThread(Domain& domain, kernel::UserProgram* program,
                                          std::uint8_t priority, hw::CoreId core,
                                          kernel::CapIdx vspace) {
  const kernel::CapIdx tcb =
      RetypeInColours(domain.colours, kernel::ObjectType::kTcb, "TCB retype");

  kernel::TcbSettings settings;
  settings.vspace = vspace != 0 ? vspace : domain.vspace;
  settings.priority = priority;
  settings.domain = domain.id;
  settings.kernel_image = domain.kernel_image;
  settings.affinity = core;
  settings.program = program;
  settings.cspace = domain.cspace;
  Require(kernel_.ConfigureTcb(kInitCore, *cspace_, tcb, settings), "ConfigureTcb");
  Require(kernel_.ResumeTcb(kInitCore, *cspace_, tcb), "ResumeTcb");
  return tcb;
}

kernel::CapIdx DomainManager::GrantCap(Domain& domain, kernel::CapIdx manager_cap) {
  kernel::Capability cap = cspace_->At(manager_cap);
  cap.rights.clone = false;
  return domain.cspace->Insert(cap);
}

kernel::CapIdx DomainManager::CreateNotification(Domain& domain) {
  return RetypeInColours(domain.colours, kernel::ObjectType::kNotification,
                         "notification retype");
}

kernel::CapIdx DomainManager::CreateEndpoint(Domain& domain) {
  return RetypeInColours(domain.colours, kernel::ObjectType::kEndpoint, "endpoint retype");
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
