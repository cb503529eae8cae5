// Blocking TCP and UNIX-domain stream sockets.
//
// Kernel-space data transfer in Roadrunner (§4.2) rides on AF_UNIX sockets
// between shims; network transfer (§4.3) rides on TCP. Both are wrapped here
// with a uniform Connection interface.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>

#include "osal/fd.h"
#include "osal/poll.h"

namespace rr::osal {

// A connected stream socket.
class Connection {
 public:
  Connection() = default;
  explicit Connection(UniqueFd fd) : fd_(std::move(fd)) {}

  int fd() const { return fd_.get(); }
  bool valid() const { return fd_.valid(); }

  Status Send(ByteSpan data) { return WriteAll(fd_.get(), data); }
  Status Receive(MutableByteSpan out) { return ReadExact(fd_.get(), out); }

  // Deadline-bounded variants: every blocking wait is gated by poll with the
  // remaining time (the fd itself stays blocking; the I/O runs MSG_DONTWAIT
  // after readiness), so a dead or stalled peer surfaces as
  // kDeadlineExceeded instead of wedging the caller. kNoDeadline falls back
  // to the unbounded behavior.
  Status Send(ByteSpan data, TimePoint deadline);
  Status Receive(MutableByteSpan out, TimePoint deadline);

  // Gathered send (writev): transmits the concatenation of `parts` without
  // assembling an intermediate buffer. The pointer/count form serves dynamic
  // segment lists (e.g. a multi-chunk payload buffer).
  Status SendParts(std::initializer_list<ByteSpan> parts) {
    return SendParts(parts.begin(), parts.size());
  }
  Status SendParts(const ByteSpan* parts, size_t count) {
    return SendParts(parts, count, kNoDeadline);
  }
  Status SendParts(const ByteSpan* parts, size_t count, TimePoint deadline);

  // Single read(2), returning the number of bytes read (0 at EOF).
  Result<size_t> ReceiveSome(MutableByteSpan out);

  // Disables Nagle's algorithm (TCP only; no-op otherwise).
  void SetNoDelay(bool enabled);

  // Shuts down the write side, signalling EOF to the peer.
  Status ShutdownWrite();

  // Shuts down both directions without closing the descriptor: a thread
  // blocked sending or receiving on this connection fails immediately
  // (EPIPE / EOF) instead of hanging on a wire its owner has abandoned.
  void ShutdownBoth();

  void Close() { fd_.Reset(); }
  UniqueFd TakeFd() { return std::move(fd_); }

 private:
  UniqueFd fd_;
};

// TCP listener. Binds loopback by default; kAny opens the listener to every
// interface (the gateway's public face — everything else stays loopback).
// Port 0 picks an ephemeral port.
enum class BindAddress { kLoopback, kAny };

class TcpListener {
 public:
  static Result<TcpListener> Bind(uint16_t port,
                                  BindAddress address = BindAddress::kLoopback);

  uint16_t port() const { return port_; }
  int fd() const { return fd_.get(); }

  Result<Connection> Accept();

  // Non-blocking accept for event loops (the listener fd must be
  // non-blocking): an invalid Connection means no connection is pending.
  // Accepted connections come back with O_NONBLOCK already set.
  Result<Connection> TryAccept();

 private:
  TcpListener(UniqueFd fd, uint16_t port) : fd_(std::move(fd)), port_(port) {}

  UniqueFd fd_;
  uint16_t port_ = 0;
};

Result<Connection> TcpConnect(const std::string& host, uint16_t port);

// UNIX-domain listener. Uses the abstract namespace when `path` starts with
// '@' (no filesystem residue), otherwise a filesystem socket (unlinked on
// bind if stale).
class UnixListener {
 public:
  static Result<UnixListener> Bind(const std::string& path);
  ~UnixListener();

  UnixListener(UnixListener&&) = default;
  UnixListener& operator=(UnixListener&&) = default;

  const std::string& path() const { return path_; }
  int fd() const { return fd_.get(); }

  Result<Connection> Accept();

 private:
  UnixListener(UniqueFd fd, std::string path)
      : fd_(std::move(fd)), path_(std::move(path)) {}

  UniqueFd fd_;
  std::string path_;
};

Result<Connection> UnixConnect(const std::string& path);

// Connected AF_UNIX stream pair — the in-process stand-in for two co-located
// shims when tests do not need separate processes.
Result<std::pair<Connection, Connection>> ConnectedPair();

// Deadline-bounded whole-span I/O on a raw SOCKET descriptor (poll-gated,
// MSG_DONTWAIT — these are recv/send, not read/write, so they only serve
// sockets). kNoDeadline falls back to the unbounded WriteAll/ReadExact.
// Used by paths that hold an fd without a Connection (the data hose's
// non-splice fallback).
Status WriteAllDeadline(int fd, ByteSpan data, TimePoint deadline);
Status ReadExactDeadline(int fd, MutableByteSpan out, TimePoint deadline);

}  // namespace rr::osal
