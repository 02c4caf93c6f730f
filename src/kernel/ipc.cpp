// Endpoints and notifications: the IPC fastpath measured in paper Table 5
// and the Signal/Wait/Poll primitives the §5.3.1 covert-channel Trojan uses
// as its sender alphabet.
#include "kernel/kernel.hpp"

#include <utility>

namespace tp::kernel {

namespace {
constexpr std::size_t kMsgBytes = 64;  // message registers copied per IPC
}

SyscallResult Kernel::SysSignal(hw::CoreId core, CapIdx notification) {
  return Syscall(core, KernelOp::kSignal, [&]() -> SyscallResult {
    const Capability* cap = CheckCurrent(core, notification, ObjectType::kNotification);
    if (cap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    NotificationObj& n = objects_.As<NotificationObj>(cap->obj);
    TouchData(core, n.metadata_paddr, 16, true);
    n.word |= cap->badge != 0 ? cap->badge : 1;
    if (!n.waiters.empty()) {
      ObjId waiter = n.waiters.front();
      n.waiters.pop_front();
      TcbObj& w = objects_.As<TcbObj>(waiter);
      TouchData(core, w.metadata_paddr, 64, true);
      w.msg = n.word;
      n.word = 0;
      MakeRunnable(waiter);
    }
    return {};
  });
}

SyscallResult Kernel::SysWait(hw::CoreId core, CapIdx notification) {
  return Syscall(core, KernelOp::kWait, [&]() -> SyscallResult {
    const Capability* cap = CheckCurrent(core, notification, ObjectType::kNotification);
    if (cap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    NotificationObj& n = objects_.As<NotificationObj>(cap->obj);
    TouchData(core, n.metadata_paddr, 16, true);
    if (n.word != 0) {
      const std::uint64_t word = std::exchange(n.word, 0);
      CurrentTcbRef(core).msg = word;
      return {SyscallError::kOk, word};
    }
    n.waiters.push_back(core_state_[core].cur_tcb);
    return BlockCurrent(core, ThreadState::kBlockedOnNotification, cap->obj);
  });
}

SyscallResult Kernel::SysPoll(hw::CoreId core, CapIdx notification) {
  return Syscall(core, KernelOp::kPoll, [&]() -> SyscallResult {
    const Capability* cap = CheckCurrent(core, notification, ObjectType::kNotification);
    if (cap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    NotificationObj& n = objects_.As<NotificationObj>(cap->obj);
    TouchData(core, n.metadata_paddr, 16, true);
    const std::uint64_t word = std::exchange(n.word, 0);
    CurrentTcbRef(core).msg = word;
    return {SyscallError::kOk, word};
  });
}

SyscallResult Kernel::SysCall(hw::CoreId core, CapIdx endpoint, std::uint64_t msg) {
  return Syscall(core, KernelOp::kIpcCall, [&]() -> SyscallResult {
    const Capability* cap = CheckCurrent(core, endpoint, ObjectType::kEndpoint);
    if (cap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    TcbObj& cur = CurrentTcbRef(core);
    ObjId self = core_state_[core].cur_tcb;
    EndpointObj& ep = objects_.As<EndpointObj>(cap->obj);
    TouchData(core, ep.metadata_paddr, 32, true);

    if (!ep.receivers.empty()) {
      // Fastpath: deliver and switch directly to the receiver.
      ObjId rid = ep.receivers.front();
      ep.receivers.pop_front();
      TcbObj& receiver = objects_.As<TcbObj>(rid);
      TouchData(core, receiver.metadata_paddr, 64, true);
      TouchStack(core, kMsgBytes, false);  // message registers out
      receiver.msg = msg;
      receiver.badge = cap->badge;
      receiver.reply_to = self;
      receiver.state = ThreadState::kRunnable;

      cur.state = ThreadState::kBlockedOnSend;  // awaiting reply
      cur.blocked_on = cap->obj;

      if (receiver.kernel_image != kNullObj &&
          receiver.kernel_image != core_state_[core].cur_image) {
        // Inter-colour IPC (Table 5): kernel image switches on the IPC path;
        // no flush or pad — delivery is immediate by construction of the
        // benchmark, as the paper notes.
        KernelSwitch(core, core_state_[core].cur_image, receiver.kernel_image, false);
      }
      SwitchToThread(core, rid);
      return {};
    }
    cur.msg = msg;
    ep.senders.push_back(self);
    return BlockCurrent(core, ThreadState::kBlockedOnSend, cap->obj);
  });
}

SyscallResult Kernel::SysReplyRecv(hw::CoreId core, CapIdx endpoint, std::uint64_t reply) {
  return Syscall(core, KernelOp::kIpcReplyRecv, [&]() -> SyscallResult {
    const Capability* cap = CheckCurrent(core, endpoint, ObjectType::kEndpoint);
    if (cap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    TcbObj& cur = CurrentTcbRef(core);
    ObjId self = core_state_[core].cur_tcb;
    EndpointObj& ep = objects_.As<EndpointObj>(cap->obj);
    TouchData(core, ep.metadata_paddr, 32, true);

    ObjId caller = cur.reply_to;
    cur.reply_to = kNullObj;

    // Queue ourselves as a receiver before switching away.
    ep.receivers.push_back(self);
    MakeBlocked(self, ThreadState::kBlockedOnRecv, cap->obj);

    if (caller != kNullObj && objects_.IsLive(caller)) {
      TcbObj& c = objects_.As<TcbObj>(caller);
      TouchData(core, c.metadata_paddr, 64, true);
      TouchStack(core, kMsgBytes, false);
      c.msg = reply;
      c.state = ThreadState::kRunnable;
      if (c.kernel_image != kNullObj && c.kernel_image != core_state_[core].cur_image) {
        KernelSwitch(core, core_state_[core].cur_image, c.kernel_image, false);
      }
      SwitchToThread(core, caller);
    } else {
      RescheduleCore(core);
    }
    return {};
  });
}

SyscallResult Kernel::SysRecv(hw::CoreId core, CapIdx endpoint) {
  return Syscall(core, KernelOp::kIpcRecv, [&]() -> SyscallResult {
    const Capability* cap = CheckCurrent(core, endpoint, ObjectType::kEndpoint);
    if (cap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    EndpointObj& ep = objects_.As<EndpointObj>(cap->obj);
    TouchData(core, ep.metadata_paddr, 32, true);

    if (!ep.senders.empty()) {
      ObjId sid = ep.senders.front();
      ep.senders.pop_front();
      TcbObj& sender = objects_.As<TcbObj>(sid);
      TouchData(core, sender.metadata_paddr, 64, false);
      TcbObj& cur = CurrentTcbRef(core);
      cur.msg = sender.msg;
      cur.reply_to = sid;
      return {SyscallError::kOk, sender.msg};
    }
    ep.receivers.push_back(core_state_[core].cur_tcb);
    return BlockCurrent(core, ThreadState::kBlockedOnRecv, cap->obj);
  });
}

SyscallResult Kernel::SysSend(hw::CoreId core, CapIdx endpoint, std::uint64_t msg) {
  return Syscall(core, KernelOp::kIpcSend, [&]() -> SyscallResult {
    const Capability* cap = CheckCurrent(core, endpoint, ObjectType::kEndpoint);
    if (cap == nullptr) {
      return {SyscallError::kInvalidCap};
    }
    EndpointObj& ep = objects_.As<EndpointObj>(cap->obj);
    TouchData(core, ep.metadata_paddr, 32, true);

    if (!ep.receivers.empty()) {
      ObjId rid = ep.receivers.front();
      ep.receivers.pop_front();
      TcbObj& receiver = objects_.As<TcbObj>(rid);
      TouchData(core, receiver.metadata_paddr, 64, true);
      receiver.msg = msg;
      receiver.badge = cap->badge;
      MakeRunnable(rid);
      return {};
    }
    CurrentTcbRef(core).msg = msg;
    ep.senders.push_back(core_state_[core].cur_tcb);
    return BlockCurrent(core, ThreadState::kBlockedOnSend, cap->obj);
  });
}

}  // namespace tp::kernel
