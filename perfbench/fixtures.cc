#include "fixtures.h"

#include "dag/dag.h"
#include "gateway/interceptor.h"
#include "harness.h"
#include "runtime/function.h"

namespace perfbench {
namespace {

constexpr const char* kWorkflow = "perfbench";

// Every function's pool: 4 warm instances, never grown.
constexpr size_t kWarmInstances = 4;

// Far above the in-flight count at http-chain-1k's rate; a shed is a
// failure, so reaching it fails the run rather than flattering it.
constexpr size_t kAdmissionCap = 512;

std::string TagOf(const std::string& function) { return function + ";"; }

// Echo plus tag: the output is the input followed by "<name>;". Inside a
// traced phase the handler also records its own time, keyed by the request
// id in the input header.
rr::runtime::NativeHandler EchoPlusTag(const std::string& function,
                                       uint32_t index, bool corrupt) {
  return [tag = TagOf(function), index,
          corrupt](rr::ByteSpan input) -> rr::Result<rr::Bytes> {
    const bool timed = HandlerSpans::active();
    const rr::TimePoint start = timed ? rr::Now() : rr::TimePoint{};
    rr::Bytes out;
    out.reserve(input.size() + tag.size());
    out.assign(input.begin(), input.end());
    out.insert(out.end(), tag.begin(), tag.end());
    if (corrupt && out.size() > kHeaderBytes) out[kHeaderBytes] ^= 0x5a;
    if (timed) HandlerSpans::Record(RequestIdOf(input), index, rr::Now() - start);
    return out;
  };
}

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (const Workload w : {Workload::kHttpChain1k, Workload::kMuxFanout4k,
                           Workload::kBulkChain1m}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kHttpChain1k: return "http-chain-1k";
    case Workload::kMuxFanout4k: return "mux-fanout-4k";
    case Workload::kBulkChain1m: return "bulk-chain-1m";
  }
  return "unknown";
}

size_t InputBytes(Workload workload) {
  switch (workload) {
    case Workload::kHttpChain1k: return 1 << 10;
    case Workload::kMuxFanout4k: return 4 << 10;
    case Workload::kBulkChain1m: return 1 << 20;
  }
  return 0;
}

Fixture::~Fixture() {
  gateway_.reset();
  runtime_.reset();
  if (agent_ != nullptr) agent_->Shutdown();
}

rr::Result<std::shared_ptr<rr::api::Invocation>> Fixture::Submit(
    rr::Buffer input) {
  if (chain_) return runtime_->Submit(*chain_, std::move(input));
  return runtime_->Submit(*dag_, std::move(input));
}

rr::Status Fixture::AddFunction(const std::string& name,
                                rr::core::Location location, bool in_vm,
                                bool behind_agent,
                                const FixtureOptions& options) {
  static const rr::Bytes binary = rr::runtime::BuildFunctionModuleBinary();
  rr::runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = kWorkflow;
  rr::runtime::PoolOptions pool_options;
  pool_options.min_warm = kWarmInstances;
  pool_options.max_instances = kWarmInstances;
  std::shared_ptr<rr::core::ShimPool> pool;
  if (in_vm) {
    RR_ASSIGN_OR_RETURN(pool, rr::core::ShimPool::CreateInVm(
                                  *vm_, std::move(spec), binary, {},
                                  pool_options));
  } else {
    RR_ASSIGN_OR_RETURN(pool, rr::core::ShimPool::Create(std::move(spec),
                                                         binary, {},
                                                         pool_options));
  }
  const auto index = static_cast<uint32_t>(functions_.size());
  RR_RETURN_IF_ERROR(pool->Deploy(
      EchoPlusTag(name, index, name == options.corrupt_function)));
  rr::core::Endpoint endpoint;
  endpoint.pool = pool;
  endpoint.location = std::move(location);
  if (behind_agent) {
    endpoint.port = agent_->port();
    RR_RETURN_IF_ERROR(
        agent_->RegisterFunction(pool, runtime_->DeliverySink()));
  }
  RR_RETURN_IF_ERROR(runtime_->Register(endpoint));
  functions_.push_back(name);
  pools_.push_back(std::move(pool));
  return rr::Status::Ok();
}

rr::Result<std::unique_ptr<Fixture>> BuildFixture(
    Workload workload, const FixtureOptions& options) {
  std::unique_ptr<Fixture> f(new Fixture(workload));
  f->vm_ = std::make_unique<rr::runtime::WasmVm>(kWorkflow);
  rr::api::Runtime::Options runtime_options;
  runtime_options.tracing = options.runtime_tracing;
  f->runtime_ = std::make_unique<rr::api::Runtime>(kWorkflow, runtime_options);

  // Placements: one VM on n1 (user-space hops between its functions), a
  // dedicated sandbox on n1 (kernel hop), a sandbox on n2 (network hop).
  const rr::core::Location n1_vm{"n1", "vm1"};
  const rr::core::Location n1{"n1", ""};
  const rr::core::Location n2{"n2", ""};

  switch (workload) {
    case Workload::kHttpChain1k: {
      // a -> b share the VM (user hop); b -> c crosses into c's own
      // sandbox on the same node (kernel hop).
      RR_RETURN_IF_ERROR(f->AddFunction("a", n1_vm, true, false, options));
      RR_RETURN_IF_ERROR(f->AddFunction("b", n1_vm, true, false, options));
      RR_RETURN_IF_ERROR(f->AddFunction("c", n1, false, false, options));
      f->chain_ = rr::api::ChainSpec{{"a", "b", "c"}};
      f->expected_.sink_suffixes = {"a;b;c;"};

      rr::gateway::AdmissionInterceptor::Options admission;
      admission.max_inflight_runs = options.refuse_all ? 1 : kAdmissionCap;
      if (options.refuse_all) {
        admission.inflight = [] { return static_cast<size_t>(SIZE_MAX); };
      } else {
        admission.inflight = [rt = f->runtime_.get()] {
          return rt->in_flight();
        };
      }
      rr::gateway::Gateway::Options gateway_options;
      gateway_options.interceptors = {
          std::make_shared<rr::gateway::RequestIdInterceptor>(),
          std::make_shared<rr::gateway::AdmissionInterceptor>(admission)};
      RR_ASSIGN_OR_RETURN(f->gateway_,
                          rr::gateway::Gateway::Start(f->runtime_.get(),
                                                      gateway_options));
      RR_RETURN_IF_ERROR(f->gateway_->AddRoute(kHttpRoute, *f->chain_));
      break;
    }
    case Workload::kMuxFanout4k: {
      // src on n1 fans out to r0..r3, all behind one loopback NodeAgent on
      // n2: one shared mux connection, four streams per run.
      RR_ASSIGN_OR_RETURN(f->agent_, rr::core::NodeAgent::Start(0));
      RR_RETURN_IF_ERROR(f->AddFunction("src", n1, false, false, options));
      std::vector<std::string> replicas;
      for (int i = 0; i < 4; ++i) {
        const std::string name = "r" + std::to_string(i);
        RR_RETURN_IF_ERROR(f->AddFunction(name, n2, false, true, options));
        replicas.push_back(name);
        f->expected_.sink_suffixes.push_back(TagOf("src") + TagOf(name));
      }
      rr::dag::DagBuilder builder("fanout");
      builder.AddNode("src").FanOut("src", replicas);
      RR_ASSIGN_OR_RETURN(rr::dag::Dag dag, builder.Build());
      f->dag_ = rr::api::DagSpec{std::move(dag), std::nullopt};
      break;
    }
    case Workload::kBulkChain1m: {
      // u1 -> u2 (user), u2 -> k (kernel, AF_UNIX), k -> net (network over
      // the in-process loopback hose: port 0).
      RR_RETURN_IF_ERROR(f->AddFunction("u1", n1_vm, true, false, options));
      RR_RETURN_IF_ERROR(f->AddFunction("u2", n1_vm, true, false, options));
      RR_RETURN_IF_ERROR(f->AddFunction("k", n1, false, false, options));
      RR_RETURN_IF_ERROR(f->AddFunction("net", n2, false, false, options));
      f->chain_ = rr::api::ChainSpec{{"u1", "u2", "k", "net"}};
      f->expected_.sink_suffixes = {"u1;u2;k;net;"};
      break;
    }
  }
  return f;
}

}  // namespace perfbench
