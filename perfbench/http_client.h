// A minimal HTTP/1.1 client side for the HTTP generator: loopback
// connect and an incremental Content-Length response reader. Kept in the
// benchmark (not src/http) so a change to the server's own parser can never
// change how the benchmark reads responses.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

// Blocking connect to 127.0.0.1:port with TCP_NODELAY, then switched to
// non-blocking. Returns the fd, or -1.
int ConnectLoopback(uint16_t port);

// "POST /v1/invoke/<route> HTTP/1.1" head for a body of `body_bytes`.
std::string RequestHead(const std::string& route, size_t body_bytes);

class ResponseReader {
 public:
  enum class Next { kResponse, kNeedMore, kMalformed };

  void Append(const char* data, size_t n) { buffer_.append(data, n); }

  // Parses the next complete response, if any. On kResponse, `status` and
  // `body` describe it (body valid until Consume or Append).
  Next Peek(int* status, std::string_view* body);
  // Drops the response Peek returned.
  void Consume();

 private:
  std::string buffer_;
  size_t start_ = 0;      // first unconsumed byte
  size_t pending_end_ = 0;  // end of the peeked response
};

}  // namespace perfbench
