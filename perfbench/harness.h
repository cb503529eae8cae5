// Measurement plumbing that reads the middleware from outside: the
// handlers' own spans, counter snapshots (getrusage, obs::Registry, Buffer
// accounting, NodeAgent, syscall wrappers) and percentile helpers.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "syscount.h"

namespace rr::core {
class NodeAgent;
}

namespace perfbench {

// One benchmark handler invocation: which request, which function (the
// fixture's function index), and how long the handler body took.
struct HandlerSpan {
  uint64_t request_id = 0;
  uint32_t function = 0;
  uint32_t nanos = 0;
};

// In-memory span sink for handler self-times. Recording is on only inside a
// traced phase; spans are read after the phase, when no handler runs.
class HandlerSpans {
 public:
  static bool active() { return active_.load(std::memory_order_relaxed); }
  static void Start(size_t capacity);
  static void Record(uint64_t request_id, uint32_t function, rr::Nanos took);
  // Stops recording and returns what was recorded (dropped spans past the
  // capacity are counted in `dropped`).
  static std::vector<HandlerSpan> Stop(uint64_t* dropped);

 private:
  static std::atomic<bool> active_;
  static std::atomic<size_t> next_;
  static std::vector<HandlerSpan> spans_;
};

// Counters the layers already expose, read at a phase boundary.
struct Snapshot {
  rr::TimePoint wall{};
  int64_t user_ns = 0;
  int64_t sys_ns = 0;
  int64_t vcsw = 0;
  int64_t ivcsw = 0;
  uint64_t bytes_copied = 0;     // rr::Buffer::TotalBytesCopied
  uint64_t bytes_allocated = 0;  // rr::Buffer::TotalBytesAllocated
  uint64_t wire_frames = 0;        // rr_wire_frames_sent_total
  uint64_t completion_frames = 0;  // rr_agent_completion_frames_total
  uint64_t stream_stalls = 0;    // rr_agent_stream_stalls_total
  uint64_t pool_waits = 0;       // rr_pool_waits_total
  double lease_wait_sum_s = 0;   // rr_pool_lease_wait_seconds
  uint64_t lease_wait_count = 0;
  uint64_t agent_transfers = 0;  // NodeAgent::transfers_completed
  uint64_t agent_refused = 0;    // NodeAgent::transfers_refused
  SyscallCounts syscalls{};
  uint64_t socket_bytes = 0;  // written by send/sendmsg/writev
};

Snapshot TakeSnapshot(const rr::core::NodeAgent* agent);

// CPU time of the calling thread, in nanoseconds.
int64_t ThreadCpuNanos();

// /proc/self/status fields. ResetPeakRss starts a new peak window (writes
// "5" to /proc/self/clear_refs; where that is refused, the peak stays the
// process lifetime's).
double PeakRssMib();
void ResetPeakRss();
int64_t ThreadCount();

// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 when empty.
double Percentile(std::vector<double> samples, double q);

// Run metadata: CPU model, compiler, build type.
std::string CpuModel();
std::string CompilerVersion();
std::string BuildType();

}  // namespace perfbench
