// The three workloads' deployments: a Runtime with benchmark-owned
// echo-plus-tag functions, pooled at 4 warm instances each, plus the
// gateway (http-chain-1k) or the loopback NodeAgent (mux-fanout-4k).
// Everything else runs with default options.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/runtime.h"
#include "common/buffer.h"
#include "core/node_agent.h"
#include "core/shim_pool.h"
#include "gateway/gateway.h"
#include "runtime/wasm_sandbox.h"
#include "verify.h"

namespace perfbench {

enum class Workload { kHttpChain1k, kMuxFanout4k, kBulkChain1m };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);
size_t InputBytes(Workload workload);

// The gateway route every http-chain-1k request posts to.
inline constexpr const char* kHttpRoute = "chain";

struct FixtureOptions {
  // Runtime::Options::tracing (obs.tracer_on_overhead_pct only).
  bool runtime_tracing = false;
  // Self-test hooks: this function's handler flips one output byte, and
  // the admission interceptor refuses every request.
  std::string corrupt_function;
  bool refuse_all = false;
};

class Fixture {
 public:
  ~Fixture();

  Workload workload() const { return workload_; }
  rr::api::Runtime& runtime() { return *runtime_; }
  const rr::core::NodeAgent* agent() const { return agent_.get(); }
  uint16_t gateway_port() const { return gateway_ ? gateway_->port() : 0; }

  // The functions in handler-index order (HandlerSpan::function).
  const std::vector<std::string>& functions() const { return functions_; }
  const ExpectedOutput& expected() const { return expected_; }

  // Submits the workload's workflow (ChainSpec or DagSpec) directly.
  rr::Result<std::shared_ptr<rr::api::Invocation>> Submit(rr::Buffer input);

 private:
  friend rr::Result<std::unique_ptr<Fixture>> BuildFixture(
      Workload workload, const FixtureOptions& options);
  explicit Fixture(Workload workload) : workload_(workload) {}

  rr::Status AddFunction(const std::string& name, rr::core::Location location,
                         bool in_vm, bool behind_agent,
                         const FixtureOptions& options);

  const Workload workload_;
  std::vector<std::string> functions_;
  ExpectedOutput expected_;
  std::optional<rr::api::ChainSpec> chain_;
  std::optional<rr::api::DagSpec> dag_;
  // Torn down in reverse: gateway, runtime, agent, pools, VM.
  std::unique_ptr<rr::runtime::WasmVm> vm_;
  std::vector<std::shared_ptr<rr::core::ShimPool>> pools_;
  std::unique_ptr<rr::core::NodeAgent> agent_;
  std::unique_ptr<rr::api::Runtime> runtime_;
  std::unique_ptr<rr::gateway::Gateway> gateway_;
};

rr::Result<std::unique_ptr<Fixture>> BuildFixture(Workload workload,
                                                  const FixtureOptions& options);

}  // namespace perfbench
