#include "syscount.h"

namespace perfbench {
namespace internal {

std::atomic<bool> g_counting{false};
thread_local bool t_exempt = false;
CounterSlot g_slots[kSyscallKinds];
CounterSlot g_socket_bytes;

}  // namespace internal

void SetSyscallCounting(bool enabled) {
  internal::g_counting.store(enabled, std::memory_order_relaxed);
}

void ExemptThisThread() { internal::t_exempt = true; }

SyscallCounts ReadSyscallCounts() {
  SyscallCounts counts{};
  for (int i = 0; i < kSyscallKinds; ++i) {
    counts[i] = internal::g_slots[i].value.load(std::memory_order_relaxed);
  }
  return counts;
}

uint64_t ReadSocketBytesWritten() {
  return internal::g_socket_bytes.value.load(std::memory_order_relaxed);
}

}  // namespace perfbench
