// DomainManager: the library form of the paper's init process (§3.3).
//
// The initial user process partitions its Untyped memory into coloured
// pools, clones a kernel for each partition from the domain's pool, starts
// threads in each pool and associates them with their kernel — after which
// the system is almost perfectly partitioned. This class performs exactly
// those steps through the kernel's capability API.
#ifndef TP_CORE_DOMAIN_HPP_
#define TP_CORE_DOMAIN_HPP_

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/colour.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"

namespace tp::core {

// A buffer of coloured frames mapped into a domain's vspace; pages are
// exposed so attack code can build eviction sets (as Mastik does on real
// hardware via hugepage heuristics).
struct MappedBuffer {
  hw::VAddr base = 0;
  std::size_t bytes = 0;
  std::vector<std::pair<hw::VAddr, hw::PAddr>> pages;

  hw::PAddr PaddrOf(hw::VAddr va) const {
    return pages.at((va - base) / hw::kPageSize).second + (va - base) % hw::kPageSize;
  }
};

struct DomainOptions {
  kernel::DomainId id = 0;
  std::set<std::size_t> colours;       // empty = all colours (no partitioning)
  hw::Cycles pad_cycles = 0;           // per-image switch latency (§4.3)
  std::vector<std::size_t> device_timers;  // timer indices whose IRQs belong here
};

struct Domain {
  kernel::DomainId id = 0;
  std::set<std::size_t> colours;
  kernel::CapIdx kernel_image = 0;  // in the manager's cspace
  kernel::CapIdx vspace = 0;
  CSpacePtr cspace;  // runtime cspace for the domain's threads
  hw::VAddr next_vaddr = 0x10000000;
};

class DomainManager {
 public:
  explicit DomainManager(kernel::Kernel& kernel);

  // Creates a security domain: clones a kernel from the domain's coloured
  // pool when the kernel is clone-capable, binds the requested device-timer
  // IRQs to it, and configures its switch padding.
  Domain& CreateDomain(const DomainOptions& options);

  // Allocates `bytes` of coloured frames and maps them contiguously in the
  // domain's vspace.
  MappedBuffer AllocBuffer(Domain& domain, std::size_t bytes);

  // Creates, configures and resumes a thread running `program` in `domain`.
  // `vspace` overrides the domain's default address space (0 = default),
  // allowing multiple processes per domain.
  kernel::CapIdx StartThread(Domain& domain, kernel::UserProgram* program,
                             std::uint8_t priority, hw::CoreId core,
                             kernel::CapIdx vspace = 0);

  // An additional address space in the domain's colours (a second process).
  kernel::CapIdx CreateVSpace(Domain& domain);

  // Copies a capability from the manager cspace into the domain's runtime
  // cspace (stripping the clone right), returning the new index.
  kernel::CapIdx GrantCap(Domain& domain, kernel::CapIdx manager_cap);

  // Convenience objects for experiments, allocated from domain colours.
  kernel::CapIdx CreateNotification(Domain& domain);
  kernel::CapIdx CreateEndpoint(Domain& domain);

  // Nested partitioning (§3.3): carves a sub-domain out of `parent`, giving
  // it `colours` (must be a subset of the parent's) and a kernel cloned
  // from the *parent's* image. Destroying the parent's kernel revokes the
  // child's (clone-tree revocation).
  Domain& Subdivide(Domain& parent, kernel::DomainId new_id,
                    const std::set<std::size_t>& colours);

  // Destroys a domain's kernel image (revokes its clones too).
  kernel::SyscallResult DestroyDomainKernel(Domain& domain);

  ColourPool& pool() { return pool_; }
  kernel::CSpace& cspace() { return *cspace_; }
  kernel::Kernel& kernel() { return kernel_; }
  const std::vector<std::unique_ptr<Domain>>& domains() const { return domains_; }

 private:
  kernel::CapIdx CloneKernelFromPool(const std::set<std::size_t>& colours,
                                     kernel::CapIdx source_image);

  // A frame in `colours` from the pool; throws naming `what` when none is left.
  kernel::CapIdx TakeFrame(const std::set<std::size_t>& colours, const char* what);
  // A new `type` object whose metadata sits in a frame in `colours`; throws
  // naming `what` on failure.
  kernel::CapIdx RetypeInColours(const std::set<std::size_t>& colours, kernel::ObjectType type,
                                 const char* what);

  // VSpace whose root table AND interior tables live in `colours`: page
  // walks read the root PTE line, so an uncoloured root leaks across the
  // partition.
  kernel::CapIdx MakeColouredVSpace(const std::set<std::size_t>& colours);

  kernel::Kernel& kernel_;
  CSpacePtr cspace_;
  kernel::CapIdx untyped_;
  ColourPool pool_;
  std::vector<std::unique_ptr<Domain>> domains_;
};

}  // namespace tp::core

#endif  // TP_CORE_DOMAIN_HPP_
