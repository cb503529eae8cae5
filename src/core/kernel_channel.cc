#include "core/kernel_channel.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <vector>

#include "core/region_guard.h"
#include "obs/metrics.h"

namespace rr::core {
namespace {

// Channel traffic by mode: one family, one series per transfer mechanism
// (`mode="kernel"` here, "user"/"network" in their channels).
obs::Counter& KernelBytesSent() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_channel_bytes_total", "Payload bytes moved through data channels",
      {{"mode", "kernel"}, {"direction", "sent"}});
  return *counter;
}

obs::Counter& KernelBytesReceived() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_channel_bytes_total", "Payload bytes moved through data channels",
      {{"mode", "kernel"}, {"direction", "received"}});
  return *counter;
}

}  // namespace

Result<KernelChannelSender> KernelChannelSender::Connect(
    const std::string& socket_path) {
  RR_ASSIGN_OR_RETURN(osal::Connection conn, osal::UnixConnect(socket_path));
  return KernelChannelSender(std::move(conn));
}

Status KernelChannelSender::Send(Shim& source, const MemoryRegion& region,
                                 CopyMode mode) {
  timing_ = {};
  if (mode == CopyMode::kDirectGuest) {
    // Bounds-checked view of the source function's memory; the kernel copies
    // from these pages into its socket buffer — the only copy on this side.
    RR_ASSIGN_OR_RETURN(const ByteSpan view, source.OutputView(region));
    const Stopwatch transfer_timer;
    RR_RETURN_IF_ERROR(serde::WriteFrame(conn_, view));
    timing_.transfer = transfer_timer.Elapsed();
  } else {
    // Paper path: the shim reads the data out of the Wasm VM first
    // (read_memory_host), paying the Wasm VM I/O copy.
    Bytes staged(region.length);
    const Stopwatch io_timer;
    RR_RETURN_IF_ERROR(source.sandbox().ReadMemoryHost(region.address, staged));
    timing_.wasm_io = io_timer.Elapsed();
    const Stopwatch transfer_timer;
    RR_RETURN_IF_ERROR(serde::WriteFrame(conn_, staged));
    timing_.transfer = transfer_timer.Elapsed();
  }
  bytes_sent_ += region.length;
  KernelBytesSent().Inc(region.length);
  return Status::Ok();
}

Status KernelChannelSender::SendBytes(ByteSpan data) {
  RR_RETURN_IF_ERROR(serde::WriteFrame(conn_, data));
  bytes_sent_ += data.size();
  KernelBytesSent().Inc(data.size());
  return Status::Ok();
}

Status KernelChannelSender::SendBytes(const rr::BufferView& payload) {
  timing_ = {};
  const Stopwatch transfer_timer;
  RR_RETURN_IF_ERROR(serde::WriteFrame(conn_, payload));
  timing_.transfer = transfer_timer.Elapsed();
  bytes_sent_ += payload.size();
  KernelBytesSent().Inc(payload.size());
  return Status::Ok();
}

Result<MemoryRegion> KernelChannelReceiver::ReceiveInto(Shim& target,
                                                        CopyMode mode,
                                                        const RegionPlacer* place) {
  timing_ = {};
  if (mode == CopyMode::kDirectGuest) {
    const auto place_region = [&](uint64_t length) -> Result<MemoryRegion> {
      if (length > UINT32_MAX) {
        return InvalidArgumentError("frame exceeds 32-bit guest memory");
      }
      if (place != nullptr) return (*place)(static_cast<uint32_t>(length));
      return target.PrepareInput(static_cast<uint32_t>(length));
    };
    MemoryRegion delivered;
    // Reclaims a freshly placed region on any failure between placement and
    // hand-off (a frame read dying mid-body, a rejected guest write) — the
    // target instance outlives the failed transfer, so the region must not
    // stay allocated. Placer-provided regions (fan-in slices) belong to the
    // caller and are never released here.
    RegionGuard guard;
    const Stopwatch transfer_timer;
    Nanos alloc_time{0};
    RR_RETURN_IF_ERROR(serde::ReadFrameInto(
        conn_, [&](uint64_t length) -> Result<MutableByteSpan> {
          const Stopwatch alloc_timer;
          RR_ASSIGN_OR_RETURN(delivered, place_region(length));
          if (place == nullptr) guard = RegionGuard(&target, delivered);
          auto span = target.InputSpan(delivered);
          alloc_time = alloc_timer.Elapsed();
          return span;
        }));
    timing_.wasm_io = alloc_time;
    timing_.transfer = transfer_timer.Elapsed() - alloc_time;
    bytes_received_ += delivered.length;
    KernelBytesReceived().Inc(delivered.length);
    guard.Dismiss();
    return delivered;
  }
  // Paper path: kernel buffer -> shim buffer (transfer), then
  // allocate_memory + write_memory_host into the VM (Wasm VM I/O).
  const Stopwatch transfer_timer;
  RR_ASSIGN_OR_RETURN(const Bytes staged, serde::ReadFrame(conn_));
  timing_.transfer = transfer_timer.Elapsed();
  return DeliverStaged(target, staged, place);
}

Result<MemoryRegion> KernelChannelReceiver::DeliverStaged(
    Shim& target, ByteSpan staged, const RegionPlacer* place) {
  if (staged.size() > UINT32_MAX) {
    return InvalidArgumentError("frame exceeds 32-bit guest memory");
  }
  const auto length = static_cast<uint32_t>(staged.size());
  const Stopwatch io_timer;
  MemoryRegion delivered;
  RegionGuard guard;  // as in ReceiveInto: only a fresh allocation is ours
  if (place != nullptr) {
    RR_ASSIGN_OR_RETURN(delivered, (*place)(length));
  } else {
    RR_ASSIGN_OR_RETURN(delivered, target.PrepareInput(length));
    guard = RegionGuard(&target, delivered);
  }
  RR_RETURN_IF_ERROR(target.data().write_memory_host(staged, delivered.address));
  timing_.wasm_io = io_timer.Elapsed();
  bytes_received_ += delivered.length;
  KernelBytesReceived().Inc(delivered.length);
  guard.Dismiss();
  return delivered;
}

Result<InvokeOutcome> KernelChannelReceiver::ReceiveAndInvoke(Shim& target,
                                                              CopyMode mode) {
  RR_ASSIGN_OR_RETURN(const MemoryRegion region, ReceiveInto(target, mode));
  RegionGuard guard(&target, region);
  auto outcome = target.InvokeOnRegion(region);
  // A successful invoke consumes the input; a failed one leaves it placed —
  // the guard reclaims it so the instance's heap stays bounded.
  if (outcome.ok()) guard.Dismiss();
  return outcome;
}

Result<KernelChannelListener> KernelChannelListener::Bind(
    const std::string& socket_path) {
  RR_ASSIGN_OR_RETURN(osal::UnixListener listener,
                      osal::UnixListener::Bind(socket_path));
  return KernelChannelListener(std::move(listener));
}

Result<KernelChannelReceiver> KernelChannelListener::Accept() {
  RR_ASSIGN_OR_RETURN(osal::Connection conn, listener_.Accept());
  return KernelChannelReceiver::FromConnection(std::move(conn));
}

Result<std::pair<KernelChannelSender, KernelChannelReceiver>>
MakeKernelChannelPair() {
  RR_ASSIGN_OR_RETURN(auto pair, osal::ConnectedPair());
  return std::make_pair(KernelChannelSender::FromConnection(std::move(pair.first)),
                        KernelChannelReceiver::FromConnection(std::move(pair.second)));
}

Result<Bytes> PumpFrame(KernelChannelSender& sender,
                        KernelChannelReceiver& receiver,
                        const rr::BufferView& payload, TimePoint deadline) {
  if (payload.size() > UINT32_MAX) {
    return InvalidArgumentError("frame exceeds 32-bit guest memory");
  }
  sender.timing_ = {};
  receiver.timing_ = {};
  const Stopwatch transfer_timer;

  // Send side: the length header and every payload chunk, gathered.
  uint8_t header_out[8];
  StoreLE<uint64_t>(header_out, payload.size());
  std::vector<iovec> iov;
  iov.reserve(payload.segment_count() + 1);
  iov.push_back({header_out, sizeof(header_out)});
  for (size_t i = 0; i < payload.segment_count(); ++i) {
    const ByteSpan part = payload.segment(i);
    if (!part.empty()) {
      iov.push_back({const_cast<uint8_t*>(part.data()), part.size()});
    }
  }
  size_t at = 0;  // first iovec not yet fully written

  // Receive side: the length header, then the body into the shim buffer.
  uint8_t header_in[8];
  bool sized = false;
  Bytes staged;
  size_t got = 0;

  const int out_fd = sender.conn_.fd();
  const int in_fd = receiver.conn_.fd();
  for (;;) {
    bool progress = false;
    if (at < iov.size()) {
      msghdr msg{};
      msg.msg_iov = iov.data() + at;
      msg.msg_iovlen = std::min<size_t>(iov.size() - at, IOV_MAX);
      const ssize_t n = ::sendmsg(out_fd, &msg, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          return ErrnoToStatus(errno, "sendmsg");
        }
      } else {
        progress = true;
        size_t written = static_cast<size_t>(n);
        while (at < iov.size() && written >= iov[at].iov_len) {
          written -= iov[at].iov_len;
          ++at;
        }
        if (at < iov.size()) {
          iov[at].iov_base = static_cast<uint8_t*>(iov[at].iov_base) + written;
          iov[at].iov_len -= written;
        }
      }
    }
    const MutableByteSpan want =
        sized ? MutableByteSpan(staged.data() + got, staged.size() - got)
              : MutableByteSpan(header_in + got, sizeof(header_in) - got);
    if (!want.empty()) {
      const ssize_t n = ::recv(in_fd, want.data(), want.size(), MSG_DONTWAIT);
      if (n == 0) {
        return DataLossError("kernel channel peer closed mid-frame");
      }
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          return ErrnoToStatus(errno, "recv");
        }
      } else {
        progress = true;
        got += static_cast<size_t>(n);
        if (!sized && got == sizeof(header_in)) {
          const uint64_t length = LoadLE<uint64_t>(header_in);
          if (length > UINT32_MAX) {
            return DataLossError("frame header announces implausible size");
          }
          staged.resize(length);
          sized = true;
          got = 0;
        }
      }
    }
    const bool received = sized && got == staged.size();
    if (received && at == iov.size()) break;
    if (!progress) {
      RR_RETURN_IF_ERROR(osal::WaitReadableOrWritable(
          received ? -1 : in_fd, at < iov.size() ? out_fd : -1, deadline));
    }
  }

  const Nanos wire = transfer_timer.Elapsed();
  sender.timing_.transfer = wire;
  receiver.timing_.transfer = wire;
  sender.bytes_sent_ += payload.size();
  KernelBytesSent().Inc(payload.size());
  return staged;
}

}  // namespace rr::core
