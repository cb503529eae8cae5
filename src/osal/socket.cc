#include "osal/socket.h"

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <vector>

#include <cerrno>
#include <cstring>

namespace rr::osal {

namespace {

// A peer that resets mid-transfer must surface as EPIPE, not kill the
// process. sendmsg takes MSG_NOSIGNAL per call, but the splice(2) hose path
// has no per-call opt-out, so the first connection opts the process out of
// SIGPIPE once. (Only the disposition for this one signal changes, and only
// from the default-terminate; an application handler installed first is
// left alone.)
void IgnoreSigpipeOnce() {
  static const bool ignored = [] {
    struct sigaction current {};
    if (::sigaction(SIGPIPE, nullptr, &current) == 0 &&
        current.sa_handler == SIG_DFL) {
      ::signal(SIGPIPE, SIG_IGN);
    }
    return true;
  }();
  (void)ignored;
}

}  // namespace

Status Connection::SendParts(const ByteSpan* parts, size_t count,
                             TimePoint deadline) {
  std::vector<iovec> iov;
  iov.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const ByteSpan part = parts[i];
    if (part.empty()) continue;
    iov.push_back({const_cast<uint8_t*>(part.data()), part.size()});
  }
  const bool bounded = deadline != kNoDeadline;
  size_t at = 0;
  while (at < iov.size()) {
    if (bounded) RR_RETURN_IF_ERROR(WaitWritable(fd_.get(), deadline));
    msghdr msg{};
    msg.msg_iov = iov.data() + at;
    msg.msg_iovlen = iov.size() - at;
    const ssize_t n = ::sendmsg(fd_.get(), &msg,
                                MSG_NOSIGNAL | (bounded ? MSG_DONTWAIT : 0));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (bounded && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Unbounded + blocking fd: EAGAIN can only be an armed SO_SNDTIMEO
        // expiring — the same deadline mapping WriteAll applies.
        return DeadlineExceededError("sendmsg stalled past the I/O timeout");
      }
      return ErrnoToStatus(errno, "sendmsg");
    }
    // Advance past fully-written iovecs; trim a partially-written one.
    size_t written = static_cast<size_t>(n);
    while (at < iov.size() && written >= iov[at].iov_len) {
      written -= iov[at].iov_len;
      ++at;
    }
    if (at < iov.size() && written > 0) {
      iov[at].iov_base = static_cast<uint8_t*>(iov[at].iov_base) + written;
      iov[at].iov_len -= written;
    }
  }
  return Status::Ok();
}

Status WriteAllDeadline(int fd, ByteSpan data, TimePoint deadline) {
  if (deadline == kNoDeadline) return WriteAll(fd, data);
  size_t written = 0;
  while (written < data.size()) {
    RR_RETURN_IF_ERROR(WaitWritable(fd, deadline));
    const ssize_t n = ::send(fd, data.data() + written, data.size() - written,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return ErrnoToStatus(errno, "send");
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status ReadExactDeadline(int fd, MutableByteSpan out, TimePoint deadline) {
  if (deadline == kNoDeadline) return ReadExact(fd, out);
  size_t done = 0;
  while (done < out.size()) {
    RR_RETURN_IF_ERROR(WaitReadable(fd, deadline));
    const ssize_t n =
        ::recv(fd, out.data() + done, out.size() - done, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return ErrnoToStatus(errno, "recv");
    }
    if (n == 0) {
      return DataLossError("unexpected EOF after " + std::to_string(done) +
                           " of " + std::to_string(out.size()) + " bytes");
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status Connection::Send(ByteSpan data, TimePoint deadline) {
  return WriteAllDeadline(fd_.get(), data, deadline);
}

Status Connection::Receive(MutableByteSpan out, TimePoint deadline) {
  return ReadExactDeadline(fd_.get(), out, deadline);
}

Result<size_t> Connection::ReceiveSome(MutableByteSpan out) {
  while (true) {
    const ssize_t n = ::read(fd_.get(), out.data(), out.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoToStatus(errno, "read");
    }
    return static_cast<size_t>(n);
  }
}

void Connection::SetNoDelay(bool enabled) {
  const int flag = enabled ? 1 : 0;
  (void)::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag));
}

void Connection::ShutdownBoth() { ::shutdown(fd_.get(), SHUT_RDWR); }

Status Connection::ShutdownWrite() {
  if (::shutdown(fd_.get(), SHUT_WR) != 0) {
    return ErrnoToStatus(errno, "shutdown(SHUT_WR)");
  }
  return Status::Ok();
}

Result<TcpListener> TcpListener::Bind(uint16_t port, BindAddress address) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return ErrnoToStatus(errno, "socket(AF_INET)");

  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(
      address == BindAddress::kAny ? INADDR_ANY : INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoToStatus(errno, "bind");
  }
  // Deep backlog: the gateway bench opens thousands of connections in a
  // burst and loopback SYN retries would skew its latency tail.
  if (::listen(fd.get(), 1024) != 0) {
    return ErrnoToStatus(errno, "listen");
  }

  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return ErrnoToStatus(errno, "getsockname");
  }
  return TcpListener(std::move(fd), ntohs(addr.sin_port));
}

Result<Connection> TcpListener::TryAccept() {
  while (true) {
    const int conn = ::accept4(fd_.get(), nullptr, nullptr,
                               SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (conn >= 0) return Connection(UniqueFd(conn));
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Connection();
    // Transient per-connection failures (peer reset before accept, fd
    // exhaustion) surface as errors for the caller to count, not crash on.
    return ErrnoToStatus(errno, "accept4");
  }
}

Result<Connection> TcpListener::Accept() {
  IgnoreSigpipeOnce();
  while (true) {
    const int conn = ::accept4(fd_.get(), nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return ErrnoToStatus(errno, "accept4");
    }
    return Connection(UniqueFd(conn));
  }
}

Result<Connection> TcpConnect(const std::string& host, uint16_t port) {
  IgnoreSigpipeOnce();
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return ErrnoToStatus(errno, "socket(AF_INET)");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("bad IPv4 address: " + host);
  }
  while (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno == EINTR) continue;
    return ErrnoToStatus(errno, "connect " + host + ":" + std::to_string(port));
  }
  return Connection(std::move(fd));
}

namespace {

Status FillUnixAddr(const std::string& path, sockaddr_un* addr, socklen_t* len) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    return InvalidArgumentError("unix socket path length invalid: " + path);
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  if (path[0] == '@') {
    // Abstract namespace: leading NUL instead of '@'.
    std::memcpy(addr->sun_path + 1, path.data() + 1, path.size() - 1);
    *len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size());
  } else {
    std::memcpy(addr->sun_path, path.data(), path.size());
    *len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size() + 1);
  }
  return Status::Ok();
}

}  // namespace

Result<UnixListener> UnixListener::Bind(const std::string& path) {
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return ErrnoToStatus(errno, "socket(AF_UNIX)");

  sockaddr_un addr;
  socklen_t len;
  RR_RETURN_IF_ERROR(FillUnixAddr(path, &addr, &len));
  if (path[0] != '@') ::unlink(path.c_str());

  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), len) != 0) {
    return ErrnoToStatus(errno, "bind " + path);
  }
  if (::listen(fd.get(), 128) != 0) {
    return ErrnoToStatus(errno, "listen " + path);
  }
  return UnixListener(std::move(fd), path);
}

UnixListener::~UnixListener() {
  if (fd_.valid() && !path_.empty() && path_[0] != '@') {
    ::unlink(path_.c_str());
  }
}

Result<Connection> UnixListener::Accept() {
  IgnoreSigpipeOnce();
  while (true) {
    const int conn = ::accept4(fd_.get(), nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return ErrnoToStatus(errno, "accept4");
    }
    return Connection(UniqueFd(conn));
  }
}

Result<Connection> UnixConnect(const std::string& path) {
  IgnoreSigpipeOnce();
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return ErrnoToStatus(errno, "socket(AF_UNIX)");

  sockaddr_un addr;
  socklen_t len;
  RR_RETURN_IF_ERROR(FillUnixAddr(path, &addr, &len));
  while (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), len) != 0) {
    if (errno == EINTR) continue;
    return ErrnoToStatus(errno, "connect " + path);
  }
  return Connection(std::move(fd));
}

Result<std::pair<Connection, Connection>> ConnectedPair() {
  IgnoreSigpipeOnce();
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return ErrnoToStatus(errno, "socketpair");
  }
  return std::make_pair(Connection(UniqueFd(fds[0])), Connection(UniqueFd(fds[1])));
}

}  // namespace rr::osal
