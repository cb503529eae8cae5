// Load generators. Each runs one phase against a fixture and returns what
// it saw: verified latencies in completion order, a failure tally, counter
// snapshots at the phase's edges and, when traced, one record per run.
//
//  * RunClosedLoop: `callers` threads, each Submit() then Wait().
//  * RunClosedLoopHttp: one epoll thread keeping one keep-alive POST in
//    flight on each of `connections` connections.
//
// Responses are verified byte for byte after their completion time is
// taken, so verification is outside every timed section.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "api/runtime.h"
#include "fixtures.h"
#include "harness.h"
#include "verify.h"

namespace perfbench {

struct PhaseOptions {
  rr::Nanos duration{0};
  // Stop after this many requests instead (0 = run for `duration`).
  uint64_t max_requests = 0;
  // Keep a RunRecord per verified run (Submit-path drivers only).
  bool traced = false;
};

struct RunRecord {
  uint64_t id = 0;
  double latency_us = 0;
  double submit_us = 0;  // time inside Submit()
  double wake_us = -1;   // NotifyDone callback -> Wait() return; -1 = n/a
  rr::api::RunStats stats;
};

struct PhaseResult {
  Tally tally;
  std::vector<double> latency_us;  // verified runs, in completion order
  double wall_s = 0;               // phase start -> last completion
  std::vector<RunRecord> records;  // traced Submit-path phases
  int64_t generator_cpu_ns = 0;    // CPU of the benchmark's own threads
  Snapshot before;
  Snapshot after;

  uint64_t verified() const { return latency_us.size(); }
};

PhaseResult RunClosedLoop(Fixture& fixture, const InputFactory& inputs,
                          size_t callers, const PhaseOptions& options,
                          std::atomic<uint64_t>& ids);

PhaseResult RunClosedLoopHttp(Fixture& fixture, const InputFactory& inputs,
                              size_t connections, const PhaseOptions& options,
                              std::atomic<uint64_t>& ids);

}  // namespace perfbench
