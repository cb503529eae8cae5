// The verifier's own test: injected corruption and refused requests must
// be counted as failures, through the same drivers the benchmark runs.
//
//   rr_perfbench_selftest        (exit 0 = every check passed)
#include <cstdio>
#include <string>
#include <vector>

#include "drivers.h"
#include "fixtures.h"
#include "verify.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void VerifierCatchesByteLevelDamage() {
  const InputFactory inputs(7, 64);
  const rr::Bytes input = inputs.Make(3);
  ExpectedOutput expected;
  expected.sink_suffixes = {"x;", "y;"};
  std::string good(input.begin(), input.end());
  good += "x;";
  good.append(input.begin(), input.end());
  good += "y;";
  const auto span = [](const std::string& s, size_t from, size_t n) {
    return rr::AsBytes(std::string_view(s).substr(from, n));
  };
  // The same bytes split across chunk boundaries still match.
  Check(OutputMatches({span(good, 0, 10), span(good, 10, 57),
                       span(good, 67, good.size() - 67)},
                      input, expected),
        "segmented correct output matches");
  std::string flipped = good;
  flipped[40] ^= 1;
  Check(!OutputMatches({rr::AsBytes(flipped)}, input, expected),
        "one flipped byte is a mismatch");
  Check(!OutputMatches({span(good, 0, good.size() - 1)}, input, expected),
        "a truncated output is a mismatch");
  Check(!OutputMatches({rr::AsBytes(good + "!")}, input, expected),
        "a longer output is a mismatch");
  Check(RequestIdOf(input) == 3, "the header carries the request id");
  Check(inputs.Make(3) == input && InputFactory(8, 64).Make(3) != input,
        "inputs follow the seed");
}

PhaseResult Run(Workload workload, const FixtureOptions& options,
                uint64_t requests) {
  const InputFactory inputs(1, InputBytes(workload));
  std::atomic<uint64_t> ids{1};
  auto fixture = BuildFixture(workload, options);
  if (!fixture.ok()) {
    std::printf("FAIL  fixture: %s\n", fixture.status().ToString().c_str());
    ++failures;
    return {};
  }
  PhaseOptions phase;
  phase.max_requests = requests;
  if (workload == Workload::kHttpChain1k) {
    return RunClosedLoopHttp(**fixture, inputs, 2, phase, ids);
  }
  return RunClosedLoop(**fixture, inputs, 2, phase, ids);
}

void DriversCountFailures() {
  PhaseResult clean = Run(Workload::kHttpChain1k, {}, 8);
  Check(clean.tally.attempted == 8 && clean.tally.failed == 0 &&
            clean.verified() == 8,
        "clean HTTP requests all verify");

  FixtureOptions corrupt;
  corrupt.corrupt_function = "b";
  PhaseResult bad_http = Run(Workload::kHttpChain1k, corrupt, 8);
  Check(bad_http.tally.failed == 8 &&
            bad_http.tally.by_kind[static_cast<int>(Failure::kMismatch)] == 8 &&
            bad_http.verified() == 0,
        "a corrupted HTTP body counts as a failure");

  FixtureOptions refuse;
  refuse.refuse_all = true;
  PhaseResult shed = Run(Workload::kHttpChain1k, refuse, 8);
  Check(shed.tally.failed == 8 &&
            shed.tally.by_kind[static_cast<int>(Failure::kRefused)] == 8 &&
            shed.verified() == 0,
        "a refused (429) request counts as a failure");

  PhaseResult clean_mux = Run(Workload::kMuxFanout4k, {}, 8);
  Check(clean_mux.tally.attempted == 8 && clean_mux.tally.failed == 0,
        "clean fan-out runs all verify");

  corrupt.corrupt_function = "r2";
  PhaseResult bad_mux = Run(Workload::kMuxFanout4k, corrupt, 8);
  Check(bad_mux.tally.failed == 8 &&
            bad_mux.tally.by_kind[static_cast<int>(Failure::kMismatch)] == 8,
        "one corrupted fan-out branch fails the run");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::VerifierCatchesByteLevelDamage();
  perfbench::DriversCountFailures();
  std::printf("%s\n", perfbench::failures == 0 ? "selftest: ok"
                                               : "selftest: FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
