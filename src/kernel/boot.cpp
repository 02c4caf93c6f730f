// Boot protocol: lay out the boot kernel image, the §4.1 shared-data region
// and the manual-flush buffers; hand everything else to "userland" as
// Untyped, along with the master (clone-right) Kernel_Image capability.
#include "kernel/kernel.hpp"

namespace tp::kernel {

std::size_t Kernel::ImageBytes() const {
  return kKernelTextBytes + kKernelDataBytes + kKernelStackBytes + kKernelPtBytes +
         machine_.num_cores() * kIdleTcbBytes;
}

ObjId Kernel::CreateKernelImageObject(hw::PAddr base, bool boot_image) {
  KernelImageObj img;
  img.image_id = next_image_id_++;
  img.text_off = 0;
  img.text_size = kKernelTextBytes;
  img.data_off = img.text_off + kKernelTextBytes;
  img.data_size = kKernelDataBytes;
  img.stack_off = img.data_off + kKernelDataBytes;
  img.stack_size = kKernelStackBytes;
  img.pt_off = img.stack_off + kKernelStackBytes;
  img.pt_size = kKernelPtBytes;
  const std::size_t total = ImageBytes();
  for (std::size_t off = 0; off < total; off += hw::kPageSize) {
    img.frames.push_back(base + off);  // boot image: physically contiguous
  }
  img.window = std::make_unique<AddressSpace>(
      AddressSpace::KernelWindow(next_asid_++, img.RegionFrames(img.pt_off, img.pt_size)));
  img.is_boot_image = boot_image;
  img.initialised = true;
  return objects_.Create(ObjectType::kKernelImage, std::move(img));
}

void Kernel::Boot() {
  const hw::MachineConfig& mc = machine_.config();

  // --- physical layout -----------------------------------------------------
  hw::PAddr shared_base = hw::PageAlignUp(ImageBytes());
  std::size_t shared_bytes = hw::PageAlignUp(SharedDataLayout::kTotal);

  flush_buffer_base_ = shared_base + shared_bytes;
  std::size_t flush_bytes = 0;
  if (!mc.has_architected_l1_flush) {
    // Per-core L1-D load buffer + L1-I jump-chain buffer (§4.3).
    flush_bytes = machine_.num_cores() * 2 * mc.l1d.size_bytes;
  }
  hw::PAddr untyped_base = hw::PageAlignUp(flush_buffer_base_ + flush_bytes);

  shared_data_.base = shared_base;
  shared_data_.size = shared_bytes;

  // --- boot kernel image and idle threads ----------------------------------
  boot_image_ = CreateKernelImageObject(0, /*boot_image=*/true);
  KernelImageObj& boot = objects_.As<KernelImageObj>(boot_image_);
  std::size_t idle_off = boot.pt_off + boot.pt_size;
  for (std::size_t c = 0; c < machine_.num_cores(); ++c) {
    boot.idle_threads.push_back(CreateIdleThread(
        boot_image_, boot.PaddrOf(idle_off + c * kIdleTcbBytes), static_cast<hw::CoreId>(c)));
  }
  domain_image_[0] = boot_image_;

  // --- per-core state -------------------------------------------------------
  for (std::size_t c = 0; c < machine_.num_cores(); ++c) {
    hw::Core& cpu = machine_.core(c);
    CoreState& cs = core_state_[c];
    cs.cur_image = boot_image_;
    cs.cur_domain = 0;
    cs.cur_tcb = boot.idle_threads[c];
    boot.running_cores |= std::uint64_t{1} << c;

    TcbObj& idle = objects_.As<TcbObj>(cs.cur_tcb);
    idle.state = ThreadState::kIdle;

    cpu.SetKernelContext(boot.window.get(), !config_.clone_support);
    cpu.SetUserContext(nullptr);
    cpu.SetDomainTag(0);
    cpu.preemption_timer().SetDeadline(cpu.now() + config_.timeslice_cycles);
  }

  // Without IRQ partitioning all device lines are unmasked from boot.
  if (!config_.partition_irqs) {
    for (std::size_t l = 0; l < machine_.irq_controller().num_lines(); ++l) {
      machine_.irq_controller().Unmask(static_cast<hw::IrqLine>(l));
    }
  }

  // --- initial capabilities --------------------------------------------------
  boot_info_.root_cspace = std::make_shared<CSpace>();
  CSpace& cs = *boot_info_.root_cspace;

  ObjId untyped = objects_.Create(
      ObjectType::kUntyped,
      UntypedObj{untyped_base, static_cast<std::size_t>(mc.ram_bytes - untyped_base), 0});
  boot_info_.untyped = MintCap(cs, untyped, ObjectType::kUntyped, CapRights::NoClone());
  // The master image capability carries the clone right (§4.1).
  boot_info_.kernel_image = MintCap(cs, boot_image_, ObjectType::kKernelImage, CapRights::All());

  for (std::size_t t = 0; t < machine_.num_device_timers(); ++t) {
    ObjId handler = objects_.Create(ObjectType::kIrqHandler,
                                    IrqHandlerObj{machine_.device_timer(t).irq_line()});
    boot_info_.irq_handlers.push_back(
        MintCap(cs, handler, ObjectType::kIrqHandler, CapRights::NoClone()));
    ObjId timer = objects_.Create(ObjectType::kDeviceTimer, DeviceTimerObj{t});
    boot_info_.device_timers.push_back(
        MintCap(cs, timer, ObjectType::kDeviceTimer, CapRights::NoClone()));
  }
}

}  // namespace tp::kernel
