// Kernel-space data transfer (§4.2, Fig. 4b): co-located functions in
// separate sandboxes exchange data through a UNIX domain socket between
// their shims — kernel-buffered, serialization-free frames, no network.
#pragma once

#include <string>

#include "common/clock.h"
#include "core/shim.h"
#include "osal/socket.h"
#include "serde/framing.h"

namespace rr::core {

class KernelChannelReceiver;

// Sender half, held by the source function's shim.
class KernelChannelSender {
 public:
  static Result<KernelChannelSender> Connect(const std::string& socket_path);
  static KernelChannelSender FromConnection(osal::Connection conn) {
    return KernelChannelSender(std::move(conn));
  }

  // Sends the source function's output region as one frame (steps 1-3 of
  // Fig. 4b). kShimStaging reads the region into a shim buffer first (the
  // paper's read_output path); kDirectGuest writes straight from the
  // linear-memory view.
  Status Send(Shim& source, const MemoryRegion& region,
              CopyMode mode = CopyMode::kShimStaging);

  // Raw-bytes variant used when the payload is already host-resident. The
  // BufferView overload performs one vectored write over the payload's
  // shared chunks — no staging copy, no assembly.
  Status SendBytes(ByteSpan data);
  Status SendBytes(const rr::BufferView& payload);

  uint64_t bytes_sent() const { return bytes_sent_; }
  const TransferTiming& last_timing() const { return timing_; }

 private:
  friend Result<Bytes> PumpFrame(KernelChannelSender& sender,
                                 KernelChannelReceiver& receiver,
                                 const rr::BufferView& payload,
                                 TimePoint deadline);

  explicit KernelChannelSender(osal::Connection conn) : conn_(std::move(conn)) {}

  osal::Connection conn_;
  uint64_t bytes_sent_ = 0;
  TransferTiming timing_;
};

// Receiver half, held by the target function's shim.
class KernelChannelReceiver {
 public:
  static KernelChannelReceiver FromConnection(osal::Connection conn) {
    return KernelChannelReceiver(std::move(conn));
  }

  // Steps 4-6 of Fig. 4b: read the frame length, allocate_memory in the
  // target function, and deliver the payload into its linear memory.
  // kShimStaging receives into a shim buffer then write_memory_host copies
  // it in; kDirectGuest reads from the kernel straight into the guest pages.
  // A non-null `place` overrides the allocation: the payload lands in the
  // region it returns (a slice of a fan-in gather region).
  Result<MemoryRegion> ReceiveInto(Shim& target,
                                   CopyMode mode = CopyMode::kShimStaging,
                                   const RegionPlacer* place = nullptr);

  // Steps 5-6 alone, for a frame already received into a shim buffer
  // (PumpFrame's result): allocate_memory (or `place`) + write_memory_host.
  // Records the Wasm VM I/O time in last_timing().wasm_io; a failure leaves
  // no freshly placed region behind.
  Result<MemoryRegion> DeliverStaged(Shim& target, ByteSpan staged,
                                     const RegionPlacer* place = nullptr);

  // Receive + run the target function.
  Result<InvokeOutcome> ReceiveAndInvoke(Shim& target,
                                         CopyMode mode = CopyMode::kShimStaging);

  uint64_t bytes_received() const { return bytes_received_; }
  const TransferTiming& last_timing() const { return timing_; }

 private:
  friend Result<Bytes> PumpFrame(KernelChannelSender& sender,
                                 KernelChannelReceiver& receiver,
                                 const rr::BufferView& payload,
                                 TimePoint deadline);

  explicit KernelChannelReceiver(osal::Connection conn) : conn_(std::move(conn)) {}

  osal::Connection conn_;
  uint64_t bytes_received_ = 0;
  TransferTiming timing_;
};

// Listener the target shim binds; Accept yields a receiver.
class KernelChannelListener {
 public:
  static Result<KernelChannelListener> Bind(const std::string& socket_path);

  Result<KernelChannelReceiver> Accept();

  const std::string& path() const { return listener_.path(); }

 private:
  explicit KernelChannelListener(osal::UnixListener listener)
      : listener_(std::move(listener)) {}

  osal::UnixListener listener_;
};

// In-process pair for tests and single-process benchmarks (the two shims
// still talk through a real AF_UNIX kernel buffer).
Result<std::pair<KernelChannelSender, KernelChannelReceiver>>
MakeKernelChannelPair();

// Moves one frame carrying `payload` from `sender` to `receiver` on the
// CALLING thread and returns the received payload, staged in a shim buffer
// (the kShimStaging receive; DeliverStaged lands it in the target). This is
// the kernel hop's wire phase: both ends of its socketpair live in this
// process, so one thread drives both — no sender thread, no hand-off.
//
// The pump alternates non-blocking halves: sendmsg(MSG_DONTWAIT) whatever
// the socket buffer takes, then recv(MSG_DONTWAIT) whatever has arrived,
// and repeats. A frame that fits the socket buffer crosses in three
// syscalls without ever blocking; a larger one streams through the buffer
// in turns, so it cannot self-deadlock. Only when neither half made
// progress does the pump poll() both descriptors, bounded by `deadline`:
// an expiry is kDeadlineExceeded, a peer that shut down mid-frame is a
// typed error (EOF → kDataLoss, EPIPE/ECONNRESET → their errno mapping).
// Any failure leaves the pair out of frame sync — the caller must not send
// another frame over it.
//
// Records the wire time as last_timing().transfer on both halves.
Result<Bytes> PumpFrame(KernelChannelSender& sender,
                        KernelChannelReceiver& receiver,
                        const rr::BufferView& payload, TimePoint deadline);

}  // namespace rr::core
