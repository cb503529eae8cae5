// The --wrap targets for rr_perfbench's link (see syscount.h). Only this
// binary is linked with --wrap, so only it may contain this file: without
// the flag the __real_* symbols do not resolve.
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <fcntl.h>
#include <unistd.h>

#include "syscount.h"

using perfbench::internal::Count;
using perfbench::internal::CountBytes;

extern "C" {

ssize_t __real_send(int fd, const void* buf, size_t len, int flags);
ssize_t __real_recv(int fd, void* buf, size_t len, int flags);
ssize_t __real_sendmsg(int fd, const struct msghdr* msg, int flags);
ssize_t __real_writev(int fd, const struct iovec* iov, int iovcnt);
ssize_t __real_read(int fd, void* buf, size_t count);
ssize_t __real_write(int fd, const void* buf, size_t count);
ssize_t __real_splice(int fd_in, loff_t* off_in, int fd_out, loff_t* off_out,
                      size_t len, unsigned int flags);
ssize_t __real_vmsplice(int fd, const struct iovec* iov, size_t nr_segs,
                        unsigned int flags);
int __real_epoll_wait(int epfd, struct epoll_event* events, int maxevents,
                      int timeout);
int __real_epoll_ctl(int epfd, int op, int fd, struct epoll_event* event);
int __real_poll(struct pollfd* fds, nfds_t nfds, int timeout);

ssize_t __wrap_send(int fd, const void* buf, size_t len, int flags) {
  Count(perfbench::kSend);
  const ssize_t n = __real_send(fd, buf, len, flags);
  CountBytes(n);
  return n;
}

ssize_t __wrap_recv(int fd, void* buf, size_t len, int flags) {
  Count(perfbench::kRecv);
  return __real_recv(fd, buf, len, flags);
}

ssize_t __wrap_sendmsg(int fd, const struct msghdr* msg, int flags) {
  Count(perfbench::kSendmsg);
  const ssize_t n = __real_sendmsg(fd, msg, flags);
  CountBytes(n);
  return n;
}

ssize_t __wrap_writev(int fd, const struct iovec* iov, int iovcnt) {
  Count(perfbench::kWritev);
  const ssize_t n = __real_writev(fd, iov, iovcnt);
  CountBytes(n);
  return n;
}

ssize_t __wrap_read(int fd, void* buf, size_t count) {
  Count(perfbench::kRead);
  return __real_read(fd, buf, count);
}

ssize_t __wrap_write(int fd, const void* buf, size_t count) {
  Count(perfbench::kWrite);
  return __real_write(fd, buf, count);
}

ssize_t __wrap_splice(int fd_in, loff_t* off_in, int fd_out, loff_t* off_out,
                      size_t len, unsigned int flags) {
  Count(perfbench::kSplice);
  return __real_splice(fd_in, off_in, fd_out, off_out, len, flags);
}

ssize_t __wrap_vmsplice(int fd, const struct iovec* iov, size_t nr_segs,
                        unsigned int flags) {
  Count(perfbench::kVmsplice);
  return __real_vmsplice(fd, iov, nr_segs, flags);
}

int __wrap_epoll_wait(int epfd, struct epoll_event* events, int maxevents,
                      int timeout) {
  Count(perfbench::kEpollWait);
  return __real_epoll_wait(epfd, events, maxevents, timeout);
}

int __wrap_epoll_ctl(int epfd, int op, int fd, struct epoll_event* event) {
  Count(perfbench::kEpollCtl);
  return __real_epoll_ctl(epfd, op, fd, event);
}

int __wrap_poll(struct pollfd* fds, nfds_t nfds, int timeout) {
  Count(perfbench::kPoll);
  return __real_poll(fds, nfds, timeout);
}

}  // extern "C"
