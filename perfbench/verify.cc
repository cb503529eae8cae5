#include "verify.h"

#include <algorithm>
#include <cstring>

namespace perfbench {
namespace {

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void StoreLe(uint64_t value, uint8_t* out) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(value >> (8 * i));
}

uint64_t CheckWord(uint64_t seed, uint64_t id) {
  uint64_t state = seed ^ (id * 0xd1b54a32d192ed03ull);
  return SplitMix(state);
}

// Compares the next bytes of a segmented stream against `want`.
class SegmentCursor {
 public:
  explicit SegmentCursor(const std::vector<rr::ByteSpan>& segments)
      : segments_(segments) {}

  bool Expect(rr::ByteSpan want) {
    while (!want.empty()) {
      while (index_ < segments_.size() &&
             offset_ == segments_[index_].size()) {
        ++index_;
        offset_ = 0;
      }
      if (index_ == segments_.size()) return false;
      const rr::ByteSpan segment = segments_[index_];
      const size_t n = std::min(want.size(), segment.size() - offset_);
      if (std::memcmp(segment.data() + offset_, want.data(), n) != 0) {
        return false;
      }
      offset_ += n;
      want = want.subspan(n);
    }
    return true;
  }

 private:
  const std::vector<rr::ByteSpan>& segments_;
  size_t index_ = 0;
  size_t offset_ = 0;
};

}  // namespace

InputFactory::InputFactory(uint64_t seed, size_t size)
    : seed_(seed), size_(size) {
  uint64_t state = seed;
  bodies_.resize(kBodies);
  for (rr::Bytes& body : bodies_) {
    body.resize(size);
    for (size_t i = 0; i < size; i += 8) {
      const uint64_t word = SplitMix(state);
      std::memcpy(body.data() + i, &word, std::min<size_t>(8, size - i));
    }
  }
}

void InputFactory::Fill(uint64_t id, uint8_t* out) const {
  std::memcpy(out, bodies_[id % kBodies].data(), size_);
  StoreLe(id, out);
  StoreLe(CheckWord(seed_, id), out + 8);
}

rr::Bytes InputFactory::Make(uint64_t id) const {
  rr::Bytes input(size_);
  Fill(id, input.data());
  return input;
}

uint64_t RequestIdOf(rr::ByteSpan input) {
  if (input.size() < kHeaderBytes) return 0;
  uint64_t id = 0;
  for (int i = 0; i < 8; ++i) id |= static_cast<uint64_t>(input[i]) << (8 * i);
  return id;
}

size_t ExpectedOutput::SizeFor(size_t input_bytes) const {
  size_t total = 0;
  for (const std::string& suffix : sink_suffixes) {
    total += input_bytes + suffix.size();
  }
  return total;
}

bool OutputMatches(const std::vector<rr::ByteSpan>& actual,
                   rr::ByteSpan input, const ExpectedOutput& expected) {
  size_t actual_bytes = 0;
  for (const rr::ByteSpan segment : actual) actual_bytes += segment.size();
  if (actual_bytes != expected.SizeFor(input.size())) return false;
  SegmentCursor cursor(actual);
  for (const std::string& suffix : expected.sink_suffixes) {
    if (!cursor.Expect(input) || !cursor.Expect(rr::AsBytes(suffix))) {
      return false;
    }
  }
  return true;
}

std::vector<rr::ByteSpan> ChunksOf(const rr::Buffer& buffer) {
  std::vector<rr::ByteSpan> chunks;
  chunks.reserve(buffer.chunk_count());
  for (size_t i = 0; i < buffer.chunk_count(); ++i) {
    chunks.push_back(buffer.chunk(i));
  }
  return chunks;
}

const char* FailureName(Failure failure) {
  switch (failure) {
    case Failure::kNone: return "none";
    case Failure::kRefused: return "refused";
    case Failure::kBadStatus: return "bad_status";
    case Failure::kMismatch: return "mismatch";
    case Failure::kTimeout: return "timeout";
    case Failure::kTransport: return "transport";
  }
  return "unknown";
}

void Tally::Record(Failure failure) {
  ++attempted;
  if (failure != Failure::kNone) ++failed;
  ++by_kind[static_cast<int>(failure)];
}

void Tally::Add(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (int i = 0; i < kFailureKinds; ++i) by_kind[i] += other.by_kind[i];
}

}  // namespace perfbench
