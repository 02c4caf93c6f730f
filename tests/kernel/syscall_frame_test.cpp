// The syscall frame's rejected-argument paths: every argument a syscall
// rejects must return its error and still fetch exactly the frame's kernel
// text — the entry window, the op's window and the exit window — so no early
// return can skip the exit path (whose footprint the §5.3.1 kernel channel
// observes).
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <vector>

#include "core/domain.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"
#include "support/test_support.hpp"

namespace tp::kernel {
namespace {

constexpr CapIdx kBadCap = 9999;

// Text lines one syscall fetches: entry, the op's window (none for the
// syscalls without op text) and exit.
std::uint64_t FrameLines(std::optional<KernelOp> op) {
  std::uint64_t lines = Kernel::TextWindowFor(KernelOp::kEntry).length_lines +
                        Kernel::TextWindowFor(KernelOp::kExit).length_lines;
  if (op.has_value()) {
    lines += Kernel::TextWindowFor(*op).length_lines;
  }
  return lines;
}

struct ScriptedProgram final : UserProgram {
  std::function<void(UserApi&)> step;
  void Step(UserApi& api) override { step(api); }
};

class SyscallFrameTest : public ::testing::Test {
 protected:
  SyscallFrameTest()
      : machine_(hw::MachineConfig::Haswell(1)),
        // Long timeslice: no preemption tick lands inside a measured call.
        kernel_(machine_, test::TestKernelConfig(/*clone_support=*/true, 10'000'000)),
        mgr_(kernel_),
        domain_(mgr_.CreateDomain({.id = 1})),
        cs_(mgr_.cspace()),
        untyped_(kernel_.boot_info().untyped),
        boot_image_(kernel_.boot_info().kernel_image) {}

  // Makes one syscall through `call`; it must return `error` and fetch
  // exactly the frame's text for `op`.
  void ExpectFrame(const char* what, std::optional<KernelOp> op, SyscallError error,
                   const std::function<SyscallResult()>& call) {
    const std::uint64_t before = machine_.core(0).counters().fetches;
    const SyscallResult r = call();
    EXPECT_EQ(r.error, error) << what;
    EXPECT_EQ(machine_.core(0).counters().fetches - before, FrameLines(op)) << what;
  }

  CapIdx Retyped(ObjectType type) {
    CapIdx cap = 0;
    EXPECT_TRUE(kernel_.Retype(0, cs_, untyped_, type, 0, &cap).ok());
    return cap;
  }

  CapIdx Frame() {
    std::optional<CapIdx> frame = mgr_.pool().TakeFrame({});
    EXPECT_TRUE(frame.has_value());
    return frame.value_or(kBadCap);
  }

  hw::Machine machine_;
  Kernel kernel_;
  core::DomainManager mgr_;
  core::Domain& domain_;
  CSpace& cs_;
  CapIdx untyped_;
  CapIdx boot_image_;
};

TEST_F(SyscallFrameTest, ObjectSyscallsRejectBadAndWrongTypeCaps) {
  constexpr auto kInvalidCap = SyscallError::kInvalidCap;
  const CapIdx frame = Frame();
  const CapIdx tcb = Retyped(ObjectType::kTcb);
  const CapIdx kmem = Retyped(ObjectType::kKernelMemory);
  const CapIdx dest = Retyped(ObjectType::kKernelImage);
  const CapIdx irq = kernel_.boot_info().irq_handlers.at(0);
  CapIdx out = 0;

  for (CapIdx bad : {kBadCap, boot_image_}) {
    ExpectFrame("Retype", KernelOp::kRetype, kInvalidCap,
                [&] { return kernel_.Retype(0, cs_, bad, ObjectType::kFrame, 0, &out); });
  }
  for (CapIdx bad : {kBadCap, untyped_}) {
    ExpectFrame("RetypeInFrame", KernelOp::kRetype, kInvalidCap,
                [&] { return kernel_.RetypeInFrame(0, cs_, bad, ObjectType::kTcb, &out); });
    ExpectFrame("KernelClone dest", KernelOp::kClone, kInvalidCap,
                [&] { return kernel_.KernelClone(0, cs_, bad, boot_image_, kmem); });
    ExpectFrame("KernelClone src", KernelOp::kClone, kInvalidCap,
                [&] { return kernel_.KernelClone(0, cs_, dest, bad, kmem); });
    ExpectFrame("KernelDestroy", KernelOp::kDestroy, kInvalidCap,
                [&] { return kernel_.KernelDestroy(0, cs_, bad); });
    ExpectFrame("KernelSetInt image", KernelOp::kIrq, kInvalidCap,
                [&] { return kernel_.KernelSetInt(0, cs_, bad, irq); });
    ExpectFrame("KernelSetInt handler", KernelOp::kIrq, kInvalidCap,
                [&] { return kernel_.KernelSetInt(0, cs_, domain_.kernel_image, bad); });
    ExpectFrame("KernelSetPad", std::nullopt, kInvalidCap,
                [&] { return kernel_.KernelSetPad(0, cs_, bad, 1000); });
    ExpectFrame("MapFrame vspace", KernelOp::kMap, kInvalidCap,
                [&] { return kernel_.MapFrame(0, cs_, bad, frame, 0x400000); });
    ExpectFrame("MapFrame frame", KernelOp::kMap, kInvalidCap,
                [&] { return kernel_.MapFrame(0, cs_, domain_.vspace, bad, 0x400000); });
    ExpectFrame("KernelMemoryAddFrame kmem", std::nullopt, kInvalidCap,
                [&] { return kernel_.KernelMemoryAddFrame(0, cs_, bad, frame); });
    ExpectFrame("ResumeTcb", std::nullopt, kInvalidCap,
                [&] { return kernel_.ResumeTcb(0, cs_, bad); });
    ExpectFrame("BindDomainToImage", std::nullopt, kInvalidCap,
                [&] { return kernel_.BindDomainToImage(0, cs_, 7, bad); });
    TcbSettings settings;
    ExpectFrame("ConfigureTcb tcb", std::nullopt, kInvalidCap,
                [&] { return kernel_.ConfigureTcb(0, cs_, bad, settings); });
  }
  ExpectFrame("KernelClone kmem", KernelOp::kClone, kInvalidCap,
              [&] { return kernel_.KernelClone(0, cs_, dest, boot_image_, frame); });
  ExpectFrame("KernelMemoryAddFrame frame", std::nullopt, kInvalidCap,
              [&] { return kernel_.KernelMemoryAddFrame(0, cs_, kmem, untyped_); });
  // Slot 0 (the untyped) would mean "default" here, so the wrong type is a frame.
  TcbSettings settings;
  settings.vspace = frame;
  ExpectFrame("ConfigureTcb vspace", std::nullopt, kInvalidCap,
              [&] { return kernel_.ConfigureTcb(0, cs_, tcb, settings); });
  settings.vspace = 0;
  settings.kernel_image = frame;
  ExpectFrame("ConfigureTcb image", std::nullopt, kInvalidCap,
              [&] { return kernel_.ConfigureTcb(0, cs_, tcb, settings); });
}

TEST_F(SyscallFrameTest, ObjectSyscallsRejectBadArgumentsAndRights) {
  const CapIdx frame = Frame();
  const CapIdx dest = Retyped(ObjectType::kKernelImage);
  const CapIdx empty_kmem = Retyped(ObjectType::kKernelMemory);
  const CapIdx no_clone = cs_.Derive(boot_image_, CapRights::NoClone());
  const CapIdx read_only = cs_.Derive(domain_.kernel_image, CapRights{true, false, true, false});
  CapIdx out = 0;

  ExpectFrame("Retype untypable type", KernelOp::kRetype, SyscallError::kInvalidArgument,
              [&] { return kernel_.Retype(0, cs_, untyped_, ObjectType::kIrqHandler, 0, &out); });
  ExpectFrame("Retype too large", KernelOp::kRetype, SyscallError::kInsufficientMemory, [&] {
    return kernel_.Retype(0, cs_, untyped_, ObjectType::kUntyped, std::size_t{1} << 50, &out);
  });
  ExpectFrame("RetypeInFrame non-metadata type", KernelOp::kRetype,
              SyscallError::kInvalidArgument,
              [&] { return kernel_.RetypeInFrame(0, cs_, frame, ObjectType::kFrame, &out); });
  ExpectFrame("KernelClone without the clone right", KernelOp::kClone,
              SyscallError::kInsufficientRights,
              [&] { return kernel_.KernelClone(0, cs_, dest, no_clone, empty_kmem); });
  ExpectFrame("KernelClone into an initialised image", KernelOp::kClone,
              SyscallError::kInvalidArgument, [&] {
                return kernel_.KernelClone(0, cs_, domain_.kernel_image, boot_image_,
                                           empty_kmem);
              });
  ExpectFrame("KernelClone from empty Kernel_Memory", KernelOp::kClone,
              SyscallError::kInsufficientMemory,
              [&] { return kernel_.KernelClone(0, cs_, dest, boot_image_, empty_kmem); });
  ExpectFrame("KernelDestroy of the boot image", KernelOp::kDestroy,
              SyscallError::kInsufficientRights,
              [&] { return kernel_.KernelDestroy(0, cs_, boot_image_); });
  ExpectFrame("KernelSetInt without write", KernelOp::kIrq, SyscallError::kInsufficientRights,
              [&] {
                return kernel_.KernelSetInt(0, cs_, read_only,
                                            kernel_.boot_info().irq_handlers.at(0));
              });
  ExpectFrame("KernelSetPad without write", std::nullopt, SyscallError::kInsufficientRights,
              [&] { return kernel_.KernelSetPad(0, cs_, read_only, 1000); });
  ExpectFrame("MapFrame at a kernel address", KernelOp::kMap, SyscallError::kInvalidArgument,
              [&] {
                return kernel_.MapFrame(0, cs_, domain_.vspace, frame, hw::KernelVaddrFor(0));
              });

  // A Kernel_Memory that backs a kernel takes no more frames.
  const CapIdx kmem = Retyped(ObjectType::kKernelMemory);
  for (std::size_t b = 0; b < kernel_.ImageBytes(); b += hw::kPageSize) {
    ASSERT_TRUE(kernel_.KernelMemoryAddFrame(0, cs_, kmem, Frame()).ok());
  }
  ASSERT_TRUE(kernel_.KernelClone(0, cs_, dest, boot_image_, kmem).ok());
  ExpectFrame("KernelMemoryAddFrame to bound memory", std::nullopt,
              SyscallError::kInvalidArgument,
              [&] { return kernel_.KernelMemoryAddFrame(0, cs_, kmem, frame); });
}

TEST_F(SyscallFrameTest, RuntimeSyscallsRejectBadAndWrongTypeCaps) {
  const CapIdx ep = mgr_.GrantCap(domain_, mgr_.CreateEndpoint(domain_));
  const CapIdx ntfn = mgr_.GrantCap(domain_, mgr_.CreateNotification(domain_));
  bool ran = false;
  ScriptedProgram prog;
  prog.step = [&](UserApi& api) {
    if (ran) {
      return;
    }
    ran = true;
    struct Case {
      const char* name;
      KernelOp op;
      CapIdx wrong_type;
      std::function<SyscallResult(CapIdx)> call;
    };
    const std::vector<Case> cases = {
        {"Signal", KernelOp::kSignal, ep, [&](CapIdx c) { return api.Signal(c); }},
        {"Wait", KernelOp::kWait, ep, [&](CapIdx c) { return api.Wait(c); }},
        {"Poll", KernelOp::kPoll, ep, [&](CapIdx c) { return api.Poll(c); }},
        {"SetPriority", KernelOp::kTcbSetPriority, ep,
         [&](CapIdx c) { return api.SetPriority(c, 50); }},
        {"Call", KernelOp::kIpcCall, ntfn, [&](CapIdx c) { return api.Call(c, 1); }},
        {"ReplyRecv", KernelOp::kIpcReplyRecv, ntfn,
         [&](CapIdx c) { return api.ReplyRecv(c, 1); }},
        {"Recv", KernelOp::kIpcRecv, ntfn, [&](CapIdx c) { return api.Recv(c); }},
        {"Send", KernelOp::kIpcSend, ntfn, [&](CapIdx c) { return api.Send(c, 1); }},
        {"SetTimer", KernelOp::kSetTimer, ep, [&](CapIdx c) { return api.SetTimer(c, 1000); }},
    };
    for (const Case& c : cases) {
      for (CapIdx bad : {kBadCap, c.wrong_type}) {
        ExpectFrame(c.name, c.op, SyscallError::kInvalidCap, [&] { return c.call(bad); });
      }
    }
    // Yield rejects nothing; its frame is the same.
    ExpectFrame("Yield", KernelOp::kYield, SyscallError::kOk, [&] { return api.Yield(); });
  };
  mgr_.StartThread(domain_, &prog, 100, 0);
  kernel_.SetDomainSchedule(0, {1});
  kernel_.KickSchedule(0);
  for (int i = 0; i < 4 && !ran; ++i) {
    kernel_.StepCore(0);
  }
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace tp::kernel
