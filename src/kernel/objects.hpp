// Kernel object model. Everything a capability can name is an Object in the
// ObjectTable; all object *metadata* has a physical address (supplied by the
// retyping caller per the seL4 memory-management model), so kernel accesses
// to metadata have cache footprints and are therefore part of the
// timing-channel attack surface — and are partitioned by colouring user
// memory, exactly as in paper Fig. 2.
#ifndef TP_KERNEL_OBJECTS_HPP_
#define TP_KERNEL_OBJECTS_HPP_

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <variant>
#include <vector>

#include "hw/types.hpp"
#include "kernel/address_space.hpp"
#include "kernel/types.hpp"

namespace tp::kernel {

class UserApi;
class CSpace;

// User code is expressed as a step function: each Step() performs a short,
// bounded burst of simulated work (memory ops, branches, syscalls). The
// kernel preempts between steps when the timer has fired, so receivers
// observe preemption as cycle-counter jumps, as in paper §5.3.4.
class UserProgram {
 public:
  virtual ~UserProgram() = default;
  virtual void Step(UserApi& api) = 0;
  virtual bool Done() const { return false; }
};

struct UntypedObj {
  hw::PAddr base = 0;
  std::size_t size_bytes = 0;
  std::size_t watermark = 0;  // bump allocator; reset by revoke
};

struct FrameObj {
  hw::PAddr base = 0;
};

struct TcbObj {
  ThreadState state = ThreadState::kInactive;
  std::uint8_t priority = 0;
  DomainId domain = 0;
  ObjId kernel_image = kNullObj;  // the kernel that serves this thread (§4.1)
  ObjId vspace = kNullObj;
  hw::CoreId affinity = 0;
  hw::PAddr metadata_paddr = 0;  // TCB storage: caller-supplied, colourable
  UserProgram* program = nullptr;  // non-owning
  std::shared_ptr<CSpace> cspace;  // capability space for runtime syscalls
  bool is_idle = false;

  // IPC state.
  ObjId blocked_on = kNullObj;
  ObjId reply_to = kNullObj;  // caller waiting for our Reply
  std::uint64_t msg = 0;
  Badge badge = 0;
};

struct EndpointObj {
  std::deque<ObjId> senders;
  std::deque<ObjId> receivers;
  hw::PAddr metadata_paddr = 0;
};

struct NotificationObj {
  std::uint64_t word = 0;
  std::deque<ObjId> waiters;
  hw::PAddr metadata_paddr = 0;
};

struct VSpaceObj {
  std::unique_ptr<AddressSpace> space;
  hw::PAddr metadata_paddr = 0;
};

// A kernel: private text, stack, replicated global data and page tables
// (paper §4.1). Only the §4.1 shared-data region is common across images.
//
// An image's storage is a list of page frames — for cloned kernels these
// come from the domain's *coloured* pool, so kernel text/data/stack/PTs are
// cache-partitioned exactly like the domain's user memory. Region fields
// are byte offsets into the concatenated frame list.
struct KernelImageObj {
  KernelImageId image_id = 0;
  std::vector<hw::PAddr> frames;  // page frames backing the image
  std::size_t text_off = 0;
  std::size_t text_size = 0;
  std::size_t data_off = 0;  // replicated (non-shared) globals
  std::size_t data_size = 0;
  std::size_t stack_off = 0;
  std::size_t stack_size = 0;
  std::size_t pt_off = 0;  // per-image kernel page tables
  std::size_t pt_size = 0;

  // Physical address of a byte offset within the image.
  hw::PAddr PaddrOf(std::size_t offset) const {
    return frames.at(offset / hw::kPageSize) + (offset % hw::kPageSize);
  }
  // Frames backing [off, off+size).
  std::vector<hw::PAddr> RegionFrames(std::size_t off, std::size_t size) const {
    std::vector<hw::PAddr> out;
    for (std::size_t o = off; o < off + size; o += hw::kPageSize) {
      out.push_back(frames.at(o / hw::kPageSize));
    }
    return out;
  }
  std::unique_ptr<AddressSpace> window;  // kernel address space
  std::vector<ObjId> idle_threads;  // one per core (always-runnable invariant)
  std::uint64_t running_cores = 0;  // bitmap, updated on kernel switch (§4.4)
  std::set<hw::IrqLine> irqs;      // interrupts associated via Kernel_SetInt
  hw::Cycles pad_cycles = 0;        // configured switch latency (§4.3)
  ObjId parent = kNullObj;          // image this one was cloned from
  bool zombie = false;
  bool initialised = false;
  bool is_boot_image = false;
};

// Physical memory mappable into a kernel image: a list of page frames, so
// the cloner can assemble it from coloured frames (paper §3.3: the clone
// lives entirely in the domain's memory pool).
struct KernelMemoryObj {
  std::vector<hw::PAddr> frames;
  ObjId bound_image = kNullObj;

  std::size_t size_bytes() const { return frames.size() * hw::kPageSize; }
};

struct IrqHandlerObj {
  hw::IrqLine line = 0;
};

struct DeviceTimerObj {
  std::size_t timer_index = 0;
};

struct Object {
  ObjectType type = ObjectType::kNull;
  std::uint32_t generation = 0;
  bool live = false;
  std::variant<std::monostate, UntypedObj, FrameObj, TcbObj, EndpointObj, NotificationObj,
               VSpaceObj, KernelImageObj, KernelMemoryObj, IrqHandlerObj, DeviceTimerObj>
      data;
};

struct Capability {
  ObjId obj = kNullObj;
  ObjectType type = ObjectType::kNull;
  CapRights rights;
  Badge badge = 0;
  std::uint32_t generation = 0;

  bool is_null() const { return obj == kNullObj; }
};

// A capability space: a flat table of slots. Threads of one security domain
// share a CSpace; syscalls name objects by slot index.
class CSpace {
 public:
  CapIdx Insert(const Capability& cap);
  const Capability& At(CapIdx idx) const;
  Capability& At(CapIdx idx);
  // Copies `src` with possibly reduced rights (e.g. stripping clone, §4.1).
  CapIdx Derive(CapIdx src, const CapRights& new_rights);
  void Delete(CapIdx idx);
  std::size_t size() const { return slots_.size(); }

 private:
  std::vector<Capability> slots_;
  std::size_t first_free_ = 0;  // every slot below this index is occupied
};

// Object storage uses a deque so that references handed out by Get()/As()
// stay valid across later Create() calls (objects are never erased, only
// payload-reset by Destroy()).
class ObjectTable {
 public:
  ObjectTable();

  template <typename T>
  ObjId Create(ObjectType type, T&& payload) {
    ObjId id = static_cast<ObjId>(objects_.size());
    Object o;
    o.type = type;
    o.live = true;
    o.data = std::forward<T>(payload);
    objects_.push_back(std::move(o));
    return id;
  }

  Object& Get(ObjId id) { return objects_.at(id); }
  const Object& Get(ObjId id) const { return objects_.at(id); }
  bool IsLive(ObjId id) const { return id < objects_.size() && objects_[id].live; }

  // Type-checked payload accessors; throw std::bad_variant_access on misuse.
  template <typename T>
  T& As(ObjId id) {
    return std::get<T>(objects_.at(id).data);
  }
  template <typename T>
  const T& As(ObjId id) const {
    return std::get<T>(objects_.at(id).data);
  }

  // Destroys the object: bumps generation so stale capabilities fail
  // validation, releases the payload.
  void Destroy(ObjId id);

  // True if `cap` still refers to the live object it was minted for.
  bool Validate(const Capability& cap) const;

  std::size_t size() const { return objects_.size(); }

 private:
  std::deque<Object> objects_;
};

}  // namespace tp::kernel

#endif  // TP_KERNEL_OBJECTS_HPP_
