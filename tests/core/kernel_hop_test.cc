// The kernel hop moves each frame on the forwarding thread: PumpFrame drives
// both ends of the hop's AF_UNIX socketpair with non-blocking send/receive
// turns. Covers byte-exact delivery around the socket-buffer size (frames
// that fit, and frames that must stream through the buffer in turns), the
// fan-in slice placement, concurrent forwarders sharing one hop, typed and
// bounded failures when the far end dies or stalls mid-frame, and a hard
// gate that no per-transfer thread or hand-off comes back.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/kernel_channel.h"
#include "core/transport.h"
#include "osal/poll.h"
#include "osal/socket.h"
#include "runtime/function.h"

namespace rr::core {
namespace {

constexpr Nanos kDeadline = std::chrono::seconds(5);

std::unique_ptr<Shim> MakeShim(const std::string& name) {
  runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = "wf";
  spec.tenant = "default";
  static const Bytes binary = runtime::BuildFunctionModuleBinary();
  auto shim = Shim::Create(spec, binary);
  EXPECT_TRUE(shim.ok()) << shim.status();
  return shim.ok() ? std::move(*shim) : nullptr;
}

std::unique_ptr<Hop> ConnectKernelHop(Shim& source, Shim& target,
                                      Nanos deadline = kDeadline) {
  Endpoint from;
  from.shim = &source;
  Endpoint to;
  to.shim = &target;
  TransportOptions options;
  options.transfer_deadline = deadline;
  auto hop = MakeKernelTransport()->Connect(from, to, options);
  EXPECT_TRUE(hop.ok()) << hop.status();
  return hop.ok() ? std::move(*hop) : nullptr;
}

Bytes Seeded(size_t size, uint64_t seed) {
  Bytes bytes(size);
  Rng rng(seed);
  rng.Fill(bytes);
  return bytes;
}

// The kernel's send-buffer size for an AF_UNIX stream pair, as the hop's
// own socketpair gets it.
size_t SocketSendBuffer() {
  auto pair = osal::ConnectedPair();
  EXPECT_TRUE(pair.ok()) << pair.status();
  int size = 0;
  socklen_t len = sizeof(size);
  EXPECT_EQ(::getsockopt(pair->first.fd(), SOL_SOCKET, SO_SNDBUF, &size, &len),
            0);
  return static_cast<size_t>(size);
}

// Forwards `payload` and checks the delivered region byte for byte, then
// releases it.
void ForwardExact(Hop& hop, Shim& target, const Bytes& payload) {
  TransferTiming timing;
  auto delivered = hop.Forward(Payload(rr::Buffer::Copy(payload)), target,
                               &timing);
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  ASSERT_EQ(delivered->length, payload.size());
  auto view = target.OutputView(*delivered);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_TRUE(std::equal(view->begin(), view->end(), payload.begin()))
      << payload.size() << "-byte frame corrupted";
  EXPECT_TRUE(target.ReleaseRegion(*delivered).ok());
}

TEST(KernelHopTest, DeliversByteExactAroundTheSocketBufferSize) {
  auto source = MakeShim("a");
  auto target = MakeShim("b");
  auto hop = ConnectKernelHop(*source, *target);
  ASSERT_NE(hop, nullptr);
  const size_t sndbuf = SocketSendBuffer();
  ASSERT_GT(sndbuf, 1u);
  const size_t regions_before = target->data().registered_region_count();

  const std::vector<size_t> sizes = {0,          1,          1024,
                                     sndbuf - 1, sndbuf + 1, size_t{4} << 20};
  for (size_t i = 0; i < sizes.size(); ++i) {
    SCOPED_TRACE("frame of " + std::to_string(sizes[i]) + " bytes");
    ForwardExact(*hop, *target, Seeded(sizes[i], 100 + i));
  }
  EXPECT_TRUE(hop->healthy());
  EXPECT_EQ(target->data().registered_region_count(), regions_before);
}

TEST(KernelHopTest, TimingSplitsWireFromWasmIo) {
  auto source = MakeShim("a");
  auto target = MakeShim("b");
  auto hop = ConnectKernelHop(*source, *target);
  ASSERT_NE(hop, nullptr);
  TransferTiming timing;
  auto delivered = hop->Forward(
      Payload(rr::Buffer::Adopt(Seeded(1 << 20, 7))), *target, &timing);
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  EXPECT_GT(timing.transfer.count(), 0);
  EXPECT_GT(timing.wasm_io.count(), 0);  // write_memory_host into the target
  EXPECT_TRUE(target->ReleaseRegion(*delivered).ok());
}

TEST(KernelHopTest, FanInSliceThatMatchesLandsInPlace) {
  auto source = MakeShim("a");
  auto target = MakeShim("join");
  auto hop = ConnectKernelHop(*source, *target);
  ASSERT_NE(hop, nullptr);
  const Bytes gather_bytes = ToBytes("0123456789");
  auto gather_addr = target->data().allocate_memory(10);
  ASSERT_TRUE(gather_addr.ok());
  ASSERT_TRUE(target->data().write_memory_host(gather_bytes, *gather_addr).ok());
  const MemoryRegion slice{*gather_addr + 2, 5};

  auto delivered = hop->Forward(Payload(rr::Buffer::FromString("SLICE")),
                                *target, nullptr, &slice);
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  EXPECT_EQ(delivered->address, slice.address);
  auto whole = target->data().read_memory_host(*gather_addr, 10);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(AsStringView(*whole), "01SLICE789");
}

TEST(KernelHopTest, FanInSliceThatMismatchesFailsTypedAndLeaksNothing) {
  auto source = MakeShim("a");
  auto target = MakeShim("join");
  auto hop = ConnectKernelHop(*source, *target);
  ASSERT_NE(hop, nullptr);
  auto gather_addr = target->data().allocate_memory(10);
  ASSERT_TRUE(gather_addr.ok());
  const size_t regions_before = target->data().registered_region_count();
  const MemoryRegion slice{*gather_addr, 4};  // the frame carries 5 bytes

  auto delivered = hop->Forward(Payload(rr::Buffer::FromString("SLICE")),
                                *target, nullptr, &slice);
  ASSERT_FALSE(delivered.ok());
  EXPECT_EQ(delivered.status().code(), StatusCode::kInternal)
      << delivered.status();
  EXPECT_EQ(target->data().registered_region_count(), regions_before);

  // The refused frame was fully consumed: the wire is still in sync.
  EXPECT_TRUE(hop->healthy());
  ForwardExact(*hop, *target, ToBytes("next frame"));
}

TEST(KernelHopTest, ConcurrentForwardersOverOneHopEachStayByteExact) {
  constexpr size_t kThreads = 8;
  constexpr size_t kTransfers = 40;
  auto source = MakeShim("a");
  std::vector<std::unique_ptr<Shim>> targets;
  for (size_t t = 0; t < kThreads; ++t) {
    targets.push_back(MakeShim("b"));
    ASSERT_NE(targets.back(), nullptr);
  }
  auto hop = ConnectKernelHop(*source, *targets[0]);
  ASSERT_NE(hop, nullptr);
  const size_t sndbuf = SocketSendBuffer();

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (size_t i = 0; i < kTransfers; ++i) {
        // Sizes straddle the socket buffer so fitting and streaming frames
        // interleave on the shared wire.
        const size_t size = rng.NextBelow(3 * sndbuf);
        ForwardExact(*hop, *targets[t], Seeded(size, t * kTransfers + i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_TRUE(hop->healthy());
}

// PumpFrame over two CROSSED socketpairs: the frame the pump sends lands in
// `sink` (which the test may never read), and the pump receives whatever the
// test writes into `feed` — so a peer that dies or stalls mid-frame can be
// staged deterministically.
struct CrossedWire {
  KernelChannelSender sender = KernelChannelSender::FromConnection({});
  KernelChannelReceiver receiver = KernelChannelReceiver::FromConnection({});
  osal::Connection sink;
  osal::Connection feed;
};

CrossedWire Cross() {
  auto out = osal::ConnectedPair();
  auto in = osal::ConnectedPair();
  EXPECT_TRUE(out.ok() && in.ok());
  CrossedWire wire;
  wire.sender = KernelChannelSender::FromConnection(std::move(out->first));
  wire.sink = std::move(out->second);
  wire.feed = std::move(in->first);
  wire.receiver = KernelChannelReceiver::FromConnection(std::move(in->second));
  return wire;
}

// A frame header announcing `length` bytes followed by `body_prefix`.
Status FeedPartialFrame(osal::Connection& feed, uint64_t length,
                        ByteSpan body_prefix) {
  uint8_t header[8];
  StoreLE<uint64_t>(header, length);
  RR_RETURN_IF_ERROR(feed.Send(ByteSpan(header, 8)));
  return feed.Send(body_prefix);
}

TEST(KernelPumpTest, PeerShutDownMidFrameFailsTypedWithinTheDeadline) {
  CrossedWire wire = Cross();
  const Bytes prefix = Seeded(100, 1);
  ASSERT_TRUE(FeedPartialFrame(wire.feed, 1 << 20, prefix).ok());
  ASSERT_TRUE(wire.feed.ShutdownWrite().ok());

  const rr::Buffer payload = rr::Buffer::Adopt(Seeded(1024, 2));
  const Stopwatch timer;
  auto frame = PumpFrame(wire.sender, wire.receiver, rr::BufferView(payload),
                         osal::DeadlineAfter(kDeadline));
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss) << frame.status();
  EXPECT_LT(timer.Elapsed(), kDeadline);
}

TEST(KernelPumpTest, StalledPeerIsBoundedByTheDeadline) {
  CrossedWire wire = Cross();
  ASSERT_TRUE(FeedPartialFrame(wire.feed, 1 << 20, Seeded(100, 1)).ok());

  // Larger than the socket buffer and never read: the send side stalls too.
  const rr::Buffer payload = rr::Buffer::Adopt(Seeded(4 << 20, 2));
  constexpr Nanos kShort = std::chrono::milliseconds(200);
  const Stopwatch timer;
  auto frame = PumpFrame(wire.sender, wire.receiver, rr::BufferView(payload),
                         osal::DeadlineAfter(kShort));
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded)
      << frame.status();
  EXPECT_GE(timer.Elapsed(), kShort);
  EXPECT_LT(timer.Elapsed(), std::chrono::seconds(2));
}

TEST(KernelPumpTest, ClosedFarEndFailsTheSendTypedNotByDeadline) {
  CrossedWire wire = Cross();
  wire.sink.Close();  // nobody will ever read the frame the pump sends
  ASSERT_TRUE(FeedPartialFrame(wire.feed, 1 << 20, Seeded(100, 1)).ok());

  const rr::Buffer payload = rr::Buffer::Adopt(Seeded(1024, 2));
  const Stopwatch timer;
  auto frame = PumpFrame(wire.sender, wire.receiver, rr::BufferView(payload),
                         osal::DeadlineAfter(kDeadline));
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().code(), StatusCode::kDeadlineExceeded)
      << frame.status();
  EXPECT_LT(timer.Elapsed(), kDeadline);
}

// Hard gate: 1000 forwards of a 1 KiB frame must not block the forwarding
// thread. A per-transfer sender thread (spawn + join) or any hand-off to
// another thread costs at least one voluntary context switch per transfer;
// the pump, which never waits on a frame that fits the socket buffer, costs
// none. Context-switch counts do not depend on the machine's speed, so the
// bound can be a small constant.
TEST(KernelHopTest, ForwardingStaysOnTheCallingThread) {
  auto source = MakeShim("a");
  auto target = MakeShim("b");
  auto hop = ConnectKernelHop(*source, *target);
  ASSERT_NE(hop, nullptr);
  const Payload payload(rr::Buffer::Adopt(Seeded(1024, 3)));
  const auto forward_once = [&] {
    auto delivered = hop->Forward(payload, *target);
    ASSERT_TRUE(delivered.ok()) << delivered.status();
    ASSERT_TRUE(target->ReleaseRegion(*delivered).ok());
  };
  for (int i = 0; i < 10; ++i) forward_once();  // warm allocations

  constexpr long kForwards = 1000;
  rusage before{};
  ASSERT_EQ(::getrusage(RUSAGE_THREAD, &before), 0);
  for (long i = 0; i < kForwards; ++i) forward_once();
  rusage after{};
  ASSERT_EQ(::getrusage(RUSAGE_THREAD, &after), 0);
  const long switches = after.ru_nvcsw - before.ru_nvcsw;
  EXPECT_LE(switches, 20) << switches << " voluntary context switches over "
                          << kForwards << " forwards";
}

}  // namespace
}  // namespace rr::core
