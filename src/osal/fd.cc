#include "osal/fd.h"

#include <fcntl.h>

#include <cerrno>

namespace rr::osal {

namespace {

// These helpers serve blocking descriptors, where EAGAIN has exactly one
// source: an armed SO_RCVTIMEO/SO_SNDTIMEO expired with the peer making no
// progress. That is a deadline, not a
// generic unavailability.
bool IsIoTimeout(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

}  // namespace

Status WriteAll(int fd, ByteSpan data) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (IsIoTimeout(errno)) {
        return DeadlineExceededError("write stalled past the I/O timeout");
      }
      return ErrnoToStatus(errno, "write");
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status ReadExact(int fd, MutableByteSpan out) {
  size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::read(fd, out.data() + done, out.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (IsIoTimeout(errno)) {
        return DeadlineExceededError("read stalled past the I/O timeout");
      }
      return ErrnoToStatus(errno, "read");
    }
    if (n == 0) {
      return DataLossError("unexpected EOF after " + std::to_string(done) +
                           " of " + std::to_string(out.size()) + " bytes");
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status ReadToEnd(int fd, Bytes& out) {
  uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoToStatus(errno, "read");
    }
    if (n == 0) return Status::Ok();
    out.insert(out.end(), buf, buf + n);
  }
}

Result<UniqueFd> Duplicate(int fd) {
  const int dup = ::fcntl(fd, F_DUPFD_CLOEXEC, 0);
  if (dup < 0) return ErrnoToStatus(errno, "fcntl(F_DUPFD_CLOEXEC)");
  return UniqueFd(dup);
}

}  // namespace rr::osal
