// rr_perfbench: the repo benchmark.
//
//   rr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with every benchmark probe off.
// --trace 1 reruns the workload with the probes on (handler spans, syscall
// wrappers, per-run RunStats) and reports the per-layer metrics. The last
// line of stdout is one JSON object; everything above it is the
// human-readable report. README.md documents the workloads and metrics.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "drivers.h"
#include "fixtures.h"
#include "harness.h"
#include "syscount.h"
#include "verify.h"

namespace perfbench {
namespace {

constexpr size_t kHttpConnections = 4;
constexpr size_t kMuxCallers = 4;
constexpr size_t kBulkCallers = 1;

// Back-to-back set-ups before measuring; setup_s is their median.
constexpr int kSetups = 15;
constexpr auto kWarmup = std::chrono::milliseconds(100);

// An untraced run is cut into rounds of this length, each on a fresh
// fixture. A round holds at least ~1000 samples, so its p99 has ten beyond.
rr::Nanos RoundLength(Workload w) {
  return w == Workload::kBulkChain1m ? std::chrono::milliseconds(2500)
                                     : std::chrono::milliseconds(1000);
}

// Handler spans kept per traced phase (16 bytes each).
constexpr size_t kSpanCapacity = 1 << 20;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

rr::Nanos Seconds(double s) {
  return rr::Nanos(static_cast<int64_t>(s * 1e9));
}

// Runs the workload's own load shape for one phase.
PhaseResult RunWorkload(Fixture& fixture, const InputFactory& inputs,
                        const PhaseOptions& options,
                        std::atomic<uint64_t>& ids) {
  switch (fixture.workload()) {
    case Workload::kHttpChain1k:
      return RunClosedLoopHttp(fixture, inputs, kHttpConnections, options,
                               ids);
    case Workload::kMuxFanout4k:
      return RunClosedLoop(fixture, inputs,
                           options.max_requests == 1 ? 1 : kMuxCallers,
                           options, ids);
    case Workload::kBulkChain1m:
      return RunClosedLoop(fixture, inputs, kBulkCallers, options, ids);
  }
  return {};
}

PhaseResult RunFor(Fixture& fixture, const InputFactory& inputs,
                   rr::Nanos duration, bool traced,
                   std::atomic<uint64_t>& ids) {
  PhaseOptions options;
  options.duration = duration;
  options.traced = traced;
  return RunWorkload(fixture, inputs, options, ids);
}

// --- per-phase derived numbers ----------------------------------------------

double PerRun(double total, const PhaseResult& phase) {
  return phase.verified() == 0 ? 0
                               : total / static_cast<double>(phase.verified());
}

double ProcessCpuNs(const PhaseResult& phase) {
  return static_cast<double>((phase.after.user_ns + phase.after.sys_ns) -
                             (phase.before.user_ns + phase.before.sys_ns));
}

// The system's CPU per verified run: process CPU minus the HTTP client
// thread, which is not part of the system. Closed-loop callers stay in:
// Submit() and Wait() run on them.
double CpuUsPerRun(const PhaseResult& phase, bool exclude_generator) {
  const double generator =
      exclude_generator ? static_cast<double>(phase.generator_cpu_ns) : 0;
  return PerRun((ProcessCpuNs(phase) - generator) / 1e3, phase);
}

uint64_t SyscallTotal(const PhaseResult& phase, std::initializer_list<int> kinds) {
  uint64_t sum = 0;
  for (const int kind : kinds) {
    sum += phase.after.syscalls[kind] - phase.before.syscalls[kind];
  }
  return sum;
}

uint64_t AllSyscalls(const PhaseResult& phase) {
  uint64_t sum = 0;
  for (int kind = 0; kind < kSyscallKinds; ++kind) {
    sum += phase.after.syscalls[kind] - phase.before.syscalls[kind];
  }
  return sum;
}

// --- the critical-path breakdown of traced runs -----------------------------

double Us(rr::Nanos d) { return static_cast<double>(d.count()) / 1e3; }

struct Breakdown {
  // Per-run critical-path parts, keyed by row label; every run adds the same
  // labels (a row absent from a run counts as 0 for it).
  std::map<std::string, std::vector<double>> rows;
  std::vector<double> run_us;
  std::vector<double> unattributed_us;
  std::map<std::string, std::vector<double>> edge_us_by_mode;
  std::map<std::string, std::pair<double, double>> io_by_mode;  // wasm_io, latency
  std::vector<double> handler_us;  // every handler span of the phase
  double mux_payload_bytes = 0;    // bytes carried by agent-bound edges
};

// Mode label of an edge: its transfer mode, or "mux" for edges that reach a
// function behind the NodeAgent (their latency includes the remote invoke).
std::string EdgeClass(const Fixture& fixture, const rr::telemetry::EdgeSample& e) {
  if (fixture.workload() == Workload::kMuxFanout4k && e.mode == "network") {
    return "mux";
  }
  if (e.mode == "user-space") return "user";
  if (e.mode == "kernel-space") return "kernel";
  return e.mode;
}

Breakdown Attribute(const Fixture& fixture, const PhaseResult& phase,
                    const std::vector<HandlerSpan>& spans) {
  Breakdown b;
  const std::vector<std::string>& functions = fixture.functions();
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < phase.records.size(); ++i) {
    by_id[phase.records[i].id] = i;
  }
  // handler_ns[run][function]
  std::vector<std::vector<double>> handler_ns(
      phase.records.size(), std::vector<double>(functions.size(), 0));
  for (const HandlerSpan& span : spans) {
    b.handler_us.push_back(span.nanos / 1e3);
    const auto it = by_id.find(span.request_id);
    if (it != by_id.end() && span.function < functions.size()) {
      handler_ns[it->second][span.function] = span.nanos;
    }
  }
  std::map<std::string, size_t> index_of;
  for (size_t i = 0; i < functions.size(); ++i) index_of[functions[i]] = i;

  for (size_t r = 0; r < phase.records.size(); ++r) {
    const rr::api::RunStats& stats = phase.records[r].stats;
    // Longest path: finish(n) = max over in-edges (finish(src) + edge) +
    // n's handler, unless n was reached through the agent (the mux edge
    // already spans its invoke).
    std::vector<double> finish(functions.size(), -1);
    std::vector<bool> remote(functions.size(), false);
    // The in-edge that arrived last: the critical one.
    std::vector<const rr::telemetry::EdgeSample*> best_edge(functions.size());
    for (const rr::telemetry::EdgeSample& e : stats.dag.edges) {
      const std::string cls = EdgeClass(fixture, e);
      b.edge_us_by_mode[cls].push_back(Us(e.latency));
      b.io_by_mode[cls].first += Us(e.wasm_io);
      b.io_by_mode[cls].second += Us(e.latency);
      if (cls == "mux") b.mux_payload_bytes += static_cast<double>(e.bytes);
    }
    // Relax in topological order: the fixture lists functions so that
    // every edge goes from a lower index to a higher one.
    for (size_t n = 0; n < functions.size(); ++n) {
      double start = 0;
      for (const rr::telemetry::EdgeSample& e : stats.dag.edges) {
        if (e.target != functions[n]) continue;
        const auto src = index_of.find(e.source);
        if (src == index_of.end() || finish[src->second] < 0) continue;
        const double arrive = finish[src->second] + Us(e.latency);
        if (best_edge[n] == nullptr || arrive > start) {
          start = arrive;
          best_edge[n] = &e;
          remote[n] = EdgeClass(fixture, e) == "mux";
        }
      }
      finish[n] = start + (remote[n] ? 0 : handler_ns[r][n] / 1e3);
    }
    size_t sink = 0;
    for (size_t n = 1; n < functions.size(); ++n) {
      if (finish[n] > finish[sink]) sink = n;
    }
    // Walk the critical path back from the last finisher.
    std::map<std::string, double> parts;
    for (size_t n = sink;;) {
      if (!remote[n]) parts["handler " + functions[n]] += handler_ns[r][n] / 1e3;
      const rr::telemetry::EdgeSample* e = best_edge[n];
      if (e == nullptr) break;
      parts["edge " + e->source + "->" + e->target + " (" +
            EdgeClass(fixture, *e) + ")"] += Us(e->latency);
      n = index_of[e->source];
    }
    const double run = Us(stats.total);
    const double unattributed = run - finish[sink];
    b.run_us.push_back(run);
    b.unattributed_us.push_back(unattributed);
    for (const auto& [label, us] : parts) b.rows[label].push_back(us);
  }
  // Rows a run did not touch (another fan-out branch was critical) read 0.
  for (auto& [label, values] : b.rows) values.resize(b.run_us.size(), 0);
  return b;
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void PrintJson(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed == 0 && tally.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintFailures(const Tally& tally) {
  std::printf("\nrequests: attempted %llu, failed %llu (error_rate %.6f)",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), tally.error_rate());
  for (int kind = 1; kind < kFailureKinds; ++kind) {
    if (tally.by_kind[kind] > 0) {
      std::printf(", %s %llu", FailureName(static_cast<Failure>(kind)),
                  static_cast<unsigned long long>(tally.by_kind[kind]));
    }
  }
  std::printf("\n");
}

const char* LoadShape(Workload w) {
  switch (w) {
    case Workload::kHttpChain1k:
      return "closed loop, 4 keep-alive connections with one request in "
             "flight each, 1 epoll generator thread";
    case Workload::kMuxFanout4k:
      return "closed loop, 4 callers (Submit(DagSpec) then Wait)";
    case Workload::kBulkChain1m:
      return "closed loop, 1 caller (Submit(ChainSpec) then Wait)";
  }
  return "";
}

void PrintMeta(const Args& args, Workload w) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              WorkloadName(w), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("# host: nproc=%u cpu=\"%s\" compiler=\"%s\" build_type=%s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              CompilerVersion().c_str(), BuildType().c_str());
  std::printf("# network: loopback, no shaped link\n");
  std::printf("# load: %s; input %zu bytes; pools 4 warm instances\n",
              LoadShape(w), InputBytes(w));
}

int Fail(const char* what, const rr::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
  return 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rr_perfbench --workload <http-chain-1k|mux-fanout-4k|"
                 "bulk-chain-1m> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const std::optional<Workload> workload = ParseWorkload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload w = *workload;
  const bool http = w == Workload::kHttpChain1k;
  PrintMeta(args, w);

  const InputFactory inputs(args.seed, InputBytes(w));
  std::atomic<uint64_t> ids{1};
  Tally tally;

  // Set-up: workload start to the first verified response, including pool
  // warm-up and lazy hop establishment. The previous deployment's freed heap
  // is returned to the kernel first: otherwise a set-up took 6 or 25 ms on
  // mux-fanout-4k depending on whether its sandboxes' memory happened to be
  // recycled, and the mix changed from run to run. Each set-up also opens a
  // new peak-RSS window, so a round's peak covers its own deployment.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  const auto set_up = [&](const FixtureOptions& options) -> rr::Status {
    fixture.reset();
    malloc_trim(0);
    ResetPeakRss();
    const rr::TimePoint start = rr::Now();
    RR_ASSIGN_OR_RETURN(fixture, BuildFixture(w, options));
    PhaseOptions first;
    first.max_requests = 1;
    const PhaseResult phase = RunWorkload(*fixture, inputs, first, ids);
    setup_s.push_back(rr::ToSeconds(rr::Now() - start));
    tally.Add(phase.tally);
    if (phase.tally.attempted != 1) {
      return rr::InternalError("set-up did not send its first request");
    }
    return rr::Status::Ok();
  };
  // Lets caches fill before a measured phase; not measured.
  const auto warm_up = [&] {
    tally.Add(RunFor(*fixture, inputs, kWarmup, false, ids).tally);
  };
  for (int k = 0; k < kSetups; ++k) {
    if (const rr::Status s = set_up({}); !s.ok()) {
      return Fail("fixture set-up failed", s);
    }
  }
  // Later set-ups (one per round) refresh deployments after load and are
  // not reported.
  const double setup_median = Median(setup_s);
  warm_up();

  const rr::Nanos duration = Seconds(args.seconds);
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    // Rounds, each on a freshly built fixture: latency and CPU per run move
    // by tens of percent between deployments (thread placement, wake-up
    // cost on a shared host), so every figure is the median of the rounds'.
    const int rounds =
        std::max<int>(1, static_cast<int>(duration / RoundLength(w)));
    std::vector<double> rps, p50, p90, p99, cpu, client_cpu, rss;
    size_t samples = 0;
    for (int round = 0; round < rounds; ++round) {
      if (round > 0) {
        if (const rr::Status s = set_up({}); !s.ok()) {
          return Fail("fixture set-up failed", s);
        }
        warm_up();
      }
      const PhaseResult m =
          RunFor(*fixture, inputs, duration / rounds, false, ids);
      tally.Add(m.tally);
      samples += m.verified();
      rps.push_back(m.wall_s > 0 ? m.verified() / m.wall_s : 0);
      p50.push_back(Percentile(m.latency_us, 0.50));
      p90.push_back(Percentile(m.latency_us, 0.90));
      p99.push_back(Percentile(m.latency_us, 0.99));
      cpu.push_back(CpuUsPerRun(m, http));
      client_cpu.push_back(PerRun(m.generator_cpu_ns / 1e3, m));
      rss.push_back(PeakRssMib());
      std::printf("# round %d: %zu verified runs, %.1f runs/s, p50 %.1f us, "
                  "p90 %.1f us, p99 %.1f us, cpu %.2f us/run, peak rss %.1f "
                  "MiB\n",
                  round, m.latency_us.size(), rps.back(), p50.back(),
                  p90.back(), p99.back(), cpu.back(), rss.back());
    }
    std::printf("# %zu verified samples over %d rounds of ~%zu; percentiles "
                "per round, medians across rounds\n",
                samples, rounds, samples / rounds);
    // p99 is reported, not gated: on a shared host it is set by hypervisor
    // stalls of 1-3 ms and moved 2x between identical runs. p90 (about a
    // hundred samples beyond it per round) is the gated tail.
    std::printf("# latency_p99_us %.1f us (median of rounds, n=%zu; "
                "reported, not gated)\n",
                Median(p99), samples);
    if (http) {
      std::printf("# HTTP client thread CPU %.2f us/run (excluded from "
                  "cpu_us_per_req)\n",
                  Median(client_cpu));
    } else {
      std::printf("# caller threads' CPU %.2f us/run (included in "
                  "cpu_us_per_req)\n",
                  Median(client_cpu));
    }
    const std::string n = "n=" + std::to_string(samples);
    metrics = {
        {"throughput_rps", Median(rps), "1/s", "verified runs per second"},
        {"latency_p50_us", Median(p50), "us", n},
        {"latency_p90_us", Median(p90), "us", n},
        {"cpu_us_per_req", Median(cpu), "us", "process user+sys"},
        {"peak_rss_mib", Median(rss), "MiB", "VmHWM over the round"},
        {"setup_s", setup_median, "s",
         "median of " + std::to_string(kSetups)},
    };
    std::printf("# set-ups (ms):");
    for (int k = 0; k < kSetups; ++k) std::printf(" %.1f", setup_s[k] * 1e3);
    std::printf("\n");
    PrintTable("end-to-end metrics", metrics);
    PrintFailures(tally);
    fixture.reset();
    PrintJson(tally, metrics);
    return 0;
  }

  // --- traced run ---------------------------------------------------------
  const rr::Nanos share = duration / (http ? 4 : 2);
  const PhaseResult base = RunFor(*fixture, inputs, share, false, ids);
  tally.Add(base.tally);

  SetSyscallCounting(true);
  HandlerSpans::Start(kSpanCapacity);
  const PhaseResult traced = RunFor(*fixture, inputs, share, true, ids);
  uint64_t dropped = 0;
  std::vector<HandlerSpan> spans = HandlerSpans::Stop(&dropped);
  SetSyscallCounting(false);
  tally.Add(traced.tally);
  const int64_t threads = ThreadCount();

  // Per-run records come from the Submit path: the traced phase itself for
  // closed loops, the paired direct-Submit phase for http-chain-1k.
  PhaseResult paired;
  PhaseResult tracer_on;
  if (http) {
    SetSyscallCounting(true);
    HandlerSpans::Start(kSpanCapacity);
    PhaseOptions options;
    options.duration = share;
    options.traced = true;
    paired = RunClosedLoop(*fixture, inputs, kHttpConnections, options, ids);
    spans = HandlerSpans::Stop(&dropped);
    SetSyscallCounting(false);
    tally.Add(paired.tally);

    // Runtime tracing on (process-wide and sticky, hence last).
    FixtureOptions with_tracer;
    with_tracer.runtime_tracing = true;
    if (const rr::Status s = set_up(with_tracer); !s.ok()) {
      return Fail("traced fixture set-up failed", s);
    }
    warm_up();
    tracer_on = RunFor(*fixture, inputs, share, false, ids);
    tally.Add(tracer_on.tally);
  }
  const PhaseResult& runs = http ? paired : traced;
  const Breakdown b = Attribute(*fixture, runs, spans);

  std::vector<double> submit_us, queued_us, wake_us, transfer_us;
  for (const RunRecord& r : runs.records) {
    submit_us.push_back(r.submit_us);
    queued_us.push_back(Us(r.stats.queued));
    transfer_us.push_back(Us(r.stats.dag.transfer_phase));
    if (r.wake_us >= 0) wake_us.push_back(r.wake_us);
  }
  const auto edge_p50 = [&](const char* cls) {
    const auto it = b.edge_us_by_mode.find(cls);
    return it == b.edge_us_by_mode.end() ? 0.0 : Median(it->second);
  };
  const auto io_share = [&](const char* cls) {
    const auto it = b.io_by_mode.find(cls);
    return it == b.io_by_mode.end() || it->second.second <= 0
               ? 0.0
               : it->second.first / it->second.second;
  };
  const double base_p50 = Percentile(base.latency_us, 0.5);
  const double traced_p50 = Percentile(traced.latency_us, 0.5);
  const auto overhead_pct = [&](double p50) {
    return base_p50 > 0 ? (p50 - base_p50) / base_p50 * 100 : 0;
  };
  const bool mux = w == Workload::kMuxFanout4k;
  const Snapshot& s0 = traced.before;
  const Snapshot& s1 = traced.after;
  const double n = static_cast<double>(std::max<uint64_t>(1, traced.verified()));
  const double copied = static_cast<double>(s1.bytes_copied - s0.bytes_copied);
  const double cpu_ns = ProcessCpuNs(traced);
  const uint64_t lease_waits = s1.lease_wait_count - s0.lease_wait_count;

  metrics = {
      {"gateway.self_p50_us",
       http ? traced_p50 - Percentile(paired.latency_us, 0.5) : 0, "us",
       "HTTP phase p50 minus direct-Submit phase p50"},
      {"gateway.cpu_us_per_req",
       http ? CpuUsPerRun(traced, true) - CpuUsPerRun(paired, true) : 0, "us",
       "HTTP minus direct-Submit, generator threads excluded"},
      {"http.syscalls_per_req",
       http ? PerRun(AllSyscalls(traced), traced) -
                  PerRun(AllSyscalls(paired), paired)
            : 0,
       "count", "HTTP minus direct-Submit"},
      {"api.submit_call_p50_us", Median(submit_us), "us", "inside Submit()"},
      {"api.queued_p50_us", Median(queued_us), "us", "RunStats.queued"},
      {"api.wake_p50_us", Median(wake_us), "us",
       "NotifyDone callback to Wait() return"},
      {"dag.run_p50_us", Median(b.run_us), "us", "RunStats.total"},
      {"dag.transfer_phase_p50_us", Median(transfer_us), "us",
       "RunStats.dag.transfer_phase"},
      {"dag.unattributed_p50_us", Median(b.unattributed_us), "us",
       "run minus critical-path edges and handlers"},
      {"core.user.edge_p50_us", edge_p50("user"), "us", ""},
      {"core.kernel.edge_p50_us", edge_p50("kernel"), "us", ""},
      {"core.network.edge_p50_us", edge_p50("network"), "us",
       "loopback hose"},
      {"core.user.wasm_io_share", io_share("user"), "ratio", "wasm_io/latency"},
      {"core.kernel.wasm_io_share", io_share("kernel"), "ratio", ""},
      {"core.network.wasm_io_share", io_share("network"), "ratio", ""},
      {"core.mux.edge_p50_us", edge_p50("mux"), "us",
       "dispatch to completion, includes remote invoke"},
      {"core.mux.frames_per_req",
       mux ? ((s1.wire_frames - s0.wire_frames) +
              (s1.completion_frames - s0.completion_frames)) /
                 n
           : 0,
       "count", "frames src counts: wire + agent completion frames"},
      {"core.mux.wire_bytes_per_payload_byte",
       mux && b.mux_payload_bytes > 0
           ? (s1.socket_bytes - s0.socket_bytes) / n /
                 (b.mux_payload_bytes /
                  static_cast<double>(std::max<size_t>(1, runs.records.size())))
           : 0,
       "B/B", "socket bytes written per agent-bound payload byte"},
      {"core.agent.transfers_per_req",
       (s1.agent_transfers - s0.agent_transfers) / n, "count", ""},
      {"core.agent.refused_per_req", (s1.agent_refused - s0.agent_refused) / n,
       "count", ""},
      {"core.agent.stream_stalls_per_req",
       (s1.stream_stalls - s0.stream_stalls) / n, "count",
       "rr_agent_stream_stalls_total"},
      {"runtime.pool.waits_per_req", (s1.pool_waits - s0.pool_waits) / n,
       "count", "rr_pool_waits_total"},
      {"runtime.pool.lease_wait_mean_us",
       lease_waits > 0
           ? (s1.lease_wait_sum_s - s0.lease_wait_sum_s) / lease_waits * 1e6
           : 0,
       "us", "rr_pool_lease_wait_seconds"},
      {"runtime.guest.handler_p50_us", Median(b.handler_us), "us",
       "benchmark handler body"},
      {"common.bytes_copied_per_req", copied / n, "B",
       "Buffer::TotalBytesCopied"},
      {"common.bytes_allocated_per_req",
       (s1.bytes_allocated - s0.bytes_allocated) / n, "B",
       "Buffer::TotalBytesAllocated"},
      {"common.copies_per_payload_byte",
       copied / n / static_cast<double>(inputs.size()), "B/B", ""},
      {"osal.syscalls_per_req", AllSyscalls(traced) / n, "count",
       "all wrapped calls"},
      {"osal.sock_io_per_req",
       SyscallTotal(traced, {kSend, kRecv, kSendmsg, kWritev, kRead, kWrite}) /
           n,
       "count", "send recv sendmsg writev read write"},
      {"osal.splice_per_req", SyscallTotal(traced, {kSplice, kVmsplice}) / n,
       "count", "splice vmsplice"},
      {"osal.epoll_waits_per_req", SyscallTotal(traced, {kEpollWait}) / n,
       "count", ""},
      {"proc.vcsw_per_req", (s1.vcsw - s0.vcsw) / n, "count", "getrusage"},
      {"proc.ivcsw_per_req", (s1.ivcsw - s0.ivcsw) / n, "count", "getrusage"},
      {"proc.sys_cpu_share",
       cpu_ns > 0 ? (s1.sys_ns - s0.sys_ns) / cpu_ns : 0, "ratio", ""},
      {"proc.threads", static_cast<double>(threads), "count",
       "/proc/self/status"},
      {"obs.trace_overhead_pct", overhead_pct(traced_p50), "%",
       "traced vs untraced latency_p50_us"},
      {"obs.tracer_on_overhead_pct",
       http ? overhead_pct(Percentile(tracer_on.latency_us, 0.5)) : 0, "%",
       "Runtime tracing=true vs off"},
  };

  std::printf("# traced phases: untraced %zu runs, traced %zu runs%s; "
              "%zu per-run records, %zu handler spans (%llu dropped)\n",
              base.latency_us.size(), traced.latency_us.size(),
              http ? ", direct-Submit paired phase" : "", runs.records.size(),
              spans.size(), static_cast<unsigned long long>(dropped));
  PrintTable("per-layer metrics (0 = not measured on this workload)", metrics);

  // The critical path of dag.run, part by part. Means add up to the mean
  // run; unattributed is what no edge or handler accounts for.
  std::printf("\ncritical path of dag.run (%zu runs)\n", b.run_us.size());
  std::printf("  %-40s %12s %12s %8s\n", "part", "mean_us", "p50_us",
              "share");
  double run_mean = 0;
  for (const double v : b.run_us) run_mean += v;
  run_mean /= std::max<size_t>(1, b.run_us.size());
  const auto row = [&](const std::string& label,
                       const std::vector<double>& v) {
    double mean = 0;
    for (const double x : v) mean += x;
    mean /= std::max<size_t>(1, v.size());
    std::printf("  %-40s %12.2f %12.2f %7.1f%%\n", label.c_str(), mean,
                Median(v), run_mean > 0 ? mean / run_mean * 100 : 0);
  };
  for (const auto& [label, values] : b.rows) row(label, values);
  row("dag.unattributed", b.unattributed_us);
  row("= dag.run", b.run_us);
  PrintFailures(tally);
  fixture.reset();
  PrintJson(tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
