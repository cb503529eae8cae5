#include "http_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <strings.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>

namespace perfbench {

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string RequestHead(const std::string& route, size_t body_bytes) {
  return "POST /v1/invoke/" + route +
         " HTTP/1.1\r\nHost: perfbench\r\n"
         "Content-Type: application/octet-stream\r\nContent-Length: " +
         std::to_string(body_bytes) + "\r\n\r\n";
}

ResponseReader::Next ResponseReader::Peek(int* status, std::string_view* body) {
  const std::string_view view(buffer_.data() + start_, buffer_.size() - start_);
  const size_t head_end = view.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return view.size() > 64 * 1024 ? Next::kMalformed : Next::kNeedMore;
  }
  const std::string_view head = view.substr(0, head_end);
  // "HTTP/1.1 200 OK"
  if (head.size() < 12 || head.substr(0, 5) != "HTTP/") return Next::kMalformed;
  *status = std::atoi(std::string(head.substr(9, 3)).c_str());
  size_t content_length = 0;
  bool have_length = false;
  size_t line = head.find("\r\n");
  while (line != std::string_view::npos) {
    const size_t next = head.find("\r\n", line + 2);
    const std::string_view field =
        head.substr(line + 2, next == std::string_view::npos
                                  ? std::string_view::npos
                                  : next - line - 2);
    constexpr std::string_view kLength = "content-length:";
    if (field.size() > kLength.size() &&
        ::strncasecmp(field.data(), kLength.data(), kLength.size()) == 0) {
      content_length = std::strtoull(
          std::string(field.substr(kLength.size())).c_str(), nullptr, 10);
      have_length = true;
    }
    line = next;
  }
  if (!have_length) return Next::kMalformed;
  const size_t body_start = head_end + 4;
  if (view.size() < body_start + content_length) return Next::kNeedMore;
  *body = view.substr(body_start, content_length);
  pending_end_ = start_ + body_start + content_length;
  return Next::kResponse;
}

void ResponseReader::Consume() {
  start_ = pending_end_;
  if (start_ == buffer_.size()) {
    buffer_.clear();
    start_ = pending_end_ = 0;
  } else if (start_ > 256 * 1024) {
    buffer_.erase(0, start_);
    pending_end_ -= start_;
    start_ = 0;
  }
}

}  // namespace perfbench
