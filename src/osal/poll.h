// Deadline-bounded readiness waits over poll(2).
//
// The failure-hardened wire plane bounds every blocking socket wait —
// header, body chunk, delivery ack — against a per-transfer deadline, so a
// peer that dies or stalls mid-transfer surfaces as kDeadlineExceeded
// instead of a hang. The primitives here gate each blocking syscall: poll
// for readiness with the remaining time, then perform the I/O (which, for a
// stream socket that polled ready, completes without blocking when combined
// with MSG_DONTWAIT or a partial-progress call like splice).
#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "osal/fd.h"

namespace rr::osal {

// The "unbounded" sentinel: waits gated by kNoDeadline block forever, which
// keeps deadline-threaded code paths uniform (an idle NodeAgent channel
// parks on its next frame header with no bound by design).
inline constexpr TimePoint kNoDeadline = TimePoint::max();

// Converts a relative timeout into an absolute deadline. Non-positive
// timeouts mean unbounded, and a timeout too large for the clock's range
// (e.g. Nanos::max() meaning "effectively unbounded") clamps to unbounded
// instead of overflowing into an already-expired deadline.
inline TimePoint DeadlineAfter(Nanos timeout) {
  if (timeout <= Nanos{0}) return kNoDeadline;
  const TimePoint now = Now();
  if (timeout >= kNoDeadline - now) return kNoDeadline;
  return now + timeout;
}

// Blocks until `fd` is readable (resp. writable) or the deadline expires;
// kDeadlineExceeded on expiry. POLLERR/POLLHUP count as ready: the
// subsequent I/O call surfaces the actual error (EPIPE, EOF, ...), which is
// more precise than anything poll reports.
Status WaitReadable(int fd, TimePoint deadline);
Status WaitWritable(int fd, TimePoint deadline);

// Blocks until `read_fd` is readable OR `write_fd` is writable — the wait of
// a single thread driving both ends of one transfer. A negative fd is left
// out of the wait (that side has nothing more to do).
Status WaitReadableOrWritable(int read_fd, int write_fd, TimePoint deadline);

// Switches an fd's O_NONBLOCK flag. Event-loop descriptors (listener and
// accepted connections of the epoll server) must never block the loop; their
// I/O calls return EAGAIN instead and the loop re-arms for readiness.
Status SetNonBlocking(int fd, bool enabled);

// Readiness multiplexer over epoll(7): the level-triggered heart of the
// event-driven servers (one loop thread watching thousands of fds, versus
// WaitReadable's one-fd-per-blocked-thread shape). Each registered fd
// carries a caller-chosen 64-bit tag returned with its events.
class Epoll {
 public:
  // Event bits (combinable). kReadable maps to EPOLLIN, kWritable to
  // EPOLLOUT; kError covers EPOLLERR | EPOLLHUP, which epoll reports even
  // when not requested — the owning I/O call surfaces the actual error.
  static constexpr uint32_t kReadable = 1u << 0;
  static constexpr uint32_t kWritable = 1u << 1;
  static constexpr uint32_t kError = 1u << 2;

  struct Event {
    uint64_t tag = 0;
    uint32_t events = 0;  // kReadable / kWritable / kError bits
  };

  static Result<Epoll> Create();

  Epoll(Epoll&&) = default;
  Epoll& operator=(Epoll&&) = default;

  Status Add(int fd, uint32_t events, uint64_t tag);
  Status Modify(int fd, uint32_t events, uint64_t tag);
  Status Remove(int fd);

  // Blocks until at least one registered fd is ready or `timeout` elapses
  // (negative = unbounded), appending ready events to `out` (cleared first).
  // Returns Ok with an empty `out` on timeout; EINTR retries internally.
  Status Wait(std::vector<Event>& out, Nanos timeout);

  int fd() const { return fd_.get(); }

 private:
  explicit Epoll(UniqueFd fd) : fd_(std::move(fd)) {}

  UniqueFd fd_;
};

// Cross-thread wakeup for an epoll loop, on eventfd(2). Any thread may
// Signal(); the loop watches fd() for readability and Drain()s on wake.
// Signal is async-signal-safe-grade cheap: one write(2) of a counter.
class EventFd {
 public:
  static Result<EventFd> Create();

  EventFd(EventFd&&) = default;
  EventFd& operator=(EventFd&&) = default;

  int fd() const { return fd_.get(); }

  void Signal();
  void Drain();

 private:
  explicit EventFd(UniqueFd fd) : fd_(std::move(fd)) {}

  UniqueFd fd_;
};

}  // namespace rr::osal
