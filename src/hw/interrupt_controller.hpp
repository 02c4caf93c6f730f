// Interrupt controller model with the two architectures' delivery semantics
// the paper distinguishes in §4.3:
//
//  - kX86Hierarchical: interrupts are routed through a hierarchy; an IRQ
//    raised while unmasked is *accepted* by the CPU and remains deliverable
//    even if the bottom-level source is masked afterwards. The kernel must
//    probe and acknowledge pending-accepted interrupts after masking or they
//    fire across the partition boundary (the race the paper resolves).
//  - kArmSimple: single-level control; masking immediately suppresses
//    delivery, no race.
//
// Line state is held as packed bitmask words so PendingDeliverable — polled
// once per kernel step — is a handful of word ops instead of a per-line
// scan. Lowest-numbered deliverable line wins, exactly as before.
#ifndef TP_HW_INTERRUPT_CONTROLLER_HPP_
#define TP_HW_INTERRUPT_CONTROLLER_HPP_

#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "hw/types.hpp"

namespace tp::hw {

enum class IrqArch {
  kX86Hierarchical,
  kArmSimple,
};

class InterruptController {
 public:
  InterruptController(IrqArch arch, std::size_t num_lines);

  // Device side: assert the line.
  void Raise(IrqLine line);

  // Kernel side.
  void Mask(IrqLine line);
  void Unmask(IrqLine line);
  void MaskAll();

  // The highest-priority (lowest-numbered) IRQ deliverable right now, if any.
  std::optional<IrqLine> PendingDeliverable() const {
    for (std::size_t w = 0; w < raised_.size(); ++w) {
      const std::uint64_t deliverable =
          arch_ == IrqArch::kX86Hierarchical
              ? accepted_[w] | (raised_[w] & ~masked_[w])
              : raised_[w] & ~masked_[w];
      if (deliverable != 0) {
        return static_cast<IrqLine>(w * 64 + std::countr_zero(deliverable));
      }
    }
    return std::nullopt;
  }

  // Drains interrupts that were accepted before masking (x86 race window);
  // returns how many were acknowledged at the hardware level. No-op on Arm.
  std::size_t ProbeAndAckAccepted();

  // CPU took the interrupt: clear raised+accepted state for the line.
  void Ack(IrqLine line);

  bool IsRaised(IrqLine line) const { return Test(raised_, Checked(line)); }
  // Whether this single line would be delivered right now (same per-arch
  // rule as PendingDeliverable); used by the contract checker to spot a
  // partitioned-out domain's IRQ that could still fire.
  bool IsDeliverable(IrqLine line) const {
    const IrqLine l = Checked(line);
    if (arch_ == IrqArch::kX86Hierarchical && Test(accepted_, l)) {
      return true;
    }
    return Test(raised_, l) && !Test(masked_, l);
  }
  std::size_t num_lines() const { return num_lines_; }
  IrqArch arch() const { return arch_; }

 private:
  IrqLine Checked(IrqLine line) const {
    if (line >= num_lines_) {
      throw std::out_of_range("irq line out of range");
    }
    return line;
  }
  static bool Test(const std::vector<std::uint64_t>& words, IrqLine line) {
    return (words[line / 64] >> (line % 64)) & 1;
  }
  static void Set(std::vector<std::uint64_t>& words, IrqLine line) {
    words[line / 64] |= std::uint64_t{1} << (line % 64);
  }
  static void Clear(std::vector<std::uint64_t>& words, IrqLine line) {
    words[line / 64] &= ~(std::uint64_t{1} << (line % 64));
  }

  IrqArch arch_;
  std::size_t num_lines_;
  std::vector<std::uint64_t> raised_;
  std::vector<std::uint64_t> masked_;
  std::vector<std::uint64_t> accepted_;  // x86: latched past the mask
};

}  // namespace tp::hw

#endif  // TP_HW_INTERRUPT_CONTROLLER_HPP_
