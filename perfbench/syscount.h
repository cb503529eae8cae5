// Syscall counting from outside the middleware.
//
// The rr_perfbench link wraps the libc entry points src/osal calls
// (-Wl,--wrap=send, ...; see CMakeLists.txt). Each wrapper in
// syscall_wrap.cc bumps one relaxed counter here and forwards to the real
// call. Counting is off unless a traced phase turns it on, and calls made
// on a thread marked ExemptThisThread (the benchmark's own load generator)
// are never counted, so the numbers are the middleware's calls only. The
// socket-write wrappers (send, sendmsg, writev) also sum the bytes written.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace perfbench {

enum Syscall : int {
  kSend,
  kRecv,
  kSendmsg,
  kWritev,
  kRead,
  kWrite,
  kSplice,
  kVmsplice,
  kEpollWait,
  kEpollCtl,
  kPoll,
  kSyscallKinds,
};

using SyscallCounts = std::array<uint64_t, kSyscallKinds>;

void SetSyscallCounting(bool enabled);
void ExemptThisThread();
SyscallCounts ReadSyscallCounts();
uint64_t ReadSocketBytesWritten();

namespace internal {

struct alignas(64) CounterSlot {
  std::atomic<uint64_t> value{0};
};

extern std::atomic<bool> g_counting;
extern thread_local bool t_exempt;
extern CounterSlot g_slots[kSyscallKinds];
extern CounterSlot g_socket_bytes;

inline void Count(Syscall call) {
  if (g_counting.load(std::memory_order_relaxed) && !t_exempt) {
    g_slots[call].value.fetch_add(1, std::memory_order_relaxed);
  }
}

inline void CountBytes(long written) {
  if (written > 0 && g_counting.load(std::memory_order_relaxed) && !t_exempt) {
    g_socket_bytes.value.fetch_add(static_cast<uint64_t>(written),
                                   std::memory_order_relaxed);
  }
}

}  // namespace internal
}  // namespace perfbench
