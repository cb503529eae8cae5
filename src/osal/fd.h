// RAII file descriptor and robust read/write helpers.
#pragma once

#include <unistd.h>

#include <cstddef>
#include <utility>

#include "common/bytes.h"
#include "common/status.h"

namespace rr::osal {

// Owns a POSIX file descriptor; closes on destruction. Move-only.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset(other.Release());
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  explicit operator bool() const { return valid(); }

  int Release() { return std::exchange(fd_, -1); }

  void Reset(int fd = -1) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }

 private:
  int fd_ = -1;
};

// Writes the entire span, retrying on EINTR and short writes. On a blocking
// fd, EAGAIN can only mean an armed SO_SNDTIMEO expired and surfaces as
// kDeadlineExceeded.
Status WriteAll(int fd, ByteSpan data);

// Reads exactly `out.size()` bytes; fails with kDataLoss on premature EOF
// and kDeadlineExceeded when an armed SO_RCVTIMEO expires (EAGAIN on a
// blocking fd).
Status ReadExact(int fd, MutableByteSpan out);

// Reads until EOF, appending to `out`.
Status ReadToEnd(int fd, Bytes& out);

// Duplicates an fd (F_DUPFD_CLOEXEC).
Result<UniqueFd> Duplicate(int fd);

}  // namespace rr::osal
