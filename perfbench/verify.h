// Seeded inputs, expected outputs and failure accounting.
//
// Every input starts with a 16-byte header: the request id (little-endian
// u64), then a check word derived from the seed and the id. The rest is one
// of a few bodies drawn from a PRNG seeded with --seed. Handlers read the
// request id to tag their own span (harness.h), and append a tag to their
// input, so a workload's output is known in advance: for each sink, in
// declaration order, the input followed by the tags of every function on
// the path to that sink.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"

namespace perfbench {

inline constexpr size_t kHeaderBytes = 16;

class InputFactory {
 public:
  // `size` must be at least kHeaderBytes.
  InputFactory(uint64_t seed, size_t size);

  size_t size() const { return size_; }

  // Writes request `id`'s input into out[0, size()).
  void Fill(uint64_t id, uint8_t* out) const;
  rr::Bytes Make(uint64_t id) const;

 private:
  static constexpr size_t kBodies = 4;
  uint64_t seed_;
  size_t size_;
  std::vector<rr::Bytes> bodies_;
};

// The request id in an input's header; 0 when the input is too short.
uint64_t RequestIdOf(rr::ByteSpan input);

// For each sink in declaration order: the tags its path appends.
struct ExpectedOutput {
  std::vector<std::string> sink_suffixes;

  size_t SizeFor(size_t input_bytes) const;
};

// True when the concatenation of `actual` equals the output `expected`
// predicts for `input`, compared piecewise without materializing either.
bool OutputMatches(const std::vector<rr::ByteSpan>& actual,
                   rr::ByteSpan input, const ExpectedOutput& expected);

std::vector<rr::ByteSpan> ChunksOf(const rr::Buffer& buffer);

// Why a request did not produce a verified response.
enum class Failure {
  kNone,
  kRefused,     // HTTP 429 (admission shed) or Submit() refusing the spec
  kBadStatus,   // any other non-200 response, or a non-OK Wait()
  kMismatch,    // a response whose bytes differ from the expected output
  kTimeout,     // no response before the drain deadline
  kTransport,   // a torn or malformed HTTP connection
};
inline constexpr int kFailureKinds = 6;

const char* FailureName(Failure failure);

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t by_kind[kFailureKinds] = {};

  void Record(Failure failure);
  void Add(const Tally& other);
  double error_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
