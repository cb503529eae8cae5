#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/buffer.h"
#include "core/node_agent.h"
#include "obs/metrics.h"

namespace perfbench {

std::atomic<bool> HandlerSpans::active_{false};
std::atomic<size_t> HandlerSpans::next_{0};
std::vector<HandlerSpan> HandlerSpans::spans_;

void HandlerSpans::Start(size_t capacity) {
  spans_.assign(capacity, HandlerSpan{});
  next_.store(0, std::memory_order_relaxed);
  active_.store(true, std::memory_order_release);
}

void HandlerSpans::Record(uint64_t request_id, uint32_t function,
                          rr::Nanos took) {
  const size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) return;
  spans_[slot] = HandlerSpan{request_id, function,
                             static_cast<uint32_t>(std::min<int64_t>(
                                 took.count(), UINT32_MAX))};
}

std::vector<HandlerSpan> HandlerSpans::Stop(uint64_t* dropped) {
  active_.store(false, std::memory_order_release);
  const size_t recorded = next_.load(std::memory_order_acquire);
  const size_t kept = std::min(recorded, spans_.size());
  *dropped = recorded - kept;
  std::vector<HandlerSpan> out(spans_.begin(), spans_.begin() + kept);
  spans_.clear();
  spans_.shrink_to_fit();
  return out;
}

namespace {

int64_t TimevalNanos(const timeval& tv) {
  return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 +
         static_cast<int64_t>(tv.tv_usec) * 1000;
}

// A "Name:   <number> ..." line of /proc/self/status.
int64_t StatusField(const std::string& name) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name, 0) == 0) {
      return std::strtoll(line.c_str() + name.size(), nullptr, 10);
    }
  }
  return 0;
}

uint64_t CounterValue(const char* name) {
  rr::obs::Counter* counter = rr::obs::Registry::Get().counter(name);
  return counter != nullptr ? counter->Value() : 0;
}

}  // namespace

Snapshot TakeSnapshot(const rr::core::NodeAgent* agent) {
  Snapshot s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.wall = rr::Now();
  s.user_ns = TimevalNanos(ru.ru_utime);
  s.sys_ns = TimevalNanos(ru.ru_stime);
  s.vcsw = ru.ru_nvcsw;
  s.ivcsw = ru.ru_nivcsw;
  s.bytes_copied = rr::Buffer::TotalBytesCopied();
  s.bytes_allocated = rr::Buffer::TotalBytesAllocated();
  s.wire_frames = CounterValue("rr_wire_frames_sent_total");
  s.completion_frames = CounterValue("rr_agent_completion_frames_total");
  s.stream_stalls = CounterValue("rr_agent_stream_stalls_total");
  s.pool_waits = CounterValue("rr_pool_waits_total");
  if (rr::obs::Histogram* lease_wait = rr::obs::Registry::Get().histogram(
          "rr_pool_lease_wait_seconds")) {
    const rr::obs::Histogram::Snapshot snap = lease_wait->Snap();
    s.lease_wait_sum_s = snap.sum;
    s.lease_wait_count = snap.count;
  }
  if (agent != nullptr) {
    s.agent_transfers = agent->transfers_completed();
    s.agent_refused = agent->transfers_refused();
  }
  s.syscalls = ReadSyscallCounts();
  s.socket_bytes = ReadSocketBytesWritten();
  return s;
}

int64_t ThreadCpuNanos() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return TimevalNanos(ru.ru_utime) + TimevalNanos(ru.ru_stime);
}

double PeakRssMib() {
  return static_cast<double>(StatusField("VmHWM:")) / 1024.0;  // kB -> MiB
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

int64_t ThreadCount() { return StatusField("Threads:"); }

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const size_t index = std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string CompilerVersion() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string BuildType() { return PERFBENCH_BUILD_TYPE; }

}  // namespace perfbench
