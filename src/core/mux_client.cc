#include "core/mux_client.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "common/log.h"
#include "core/network_channel.h"
#include "obs/metrics.h"
#include "osal/socket.h"
#include "resilience/fault_injector.h"

namespace rr::core {
namespace {

obs::Counter& StreamStalls() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_agent_stream_stalls_total",
      "Times a sender stream exhausted its flow-control window and left the "
      "send ring");
  return *counter;
}

// Eager registration: the series appears in scrapes at zero.
const bool g_mux_client_metrics_registered = [] {
  StreamStalls();
  return true;
}();

constexpr uint8_t kMaxWireStatusCode =
    static_cast<uint8_t>(StatusCode::kTokenMismatch);

constexpr size_t kMaxMuxFunctionName = 256;

Bytes EncodeCancel(uint32_t stream_id) {
  MuxFrameHeader h;
  h.type = kMuxFrameCancel;
  h.stream_id = stream_id;
  Bytes out(kMuxFrameHeaderBytes);
  EncodeMuxFrameHeader(h, out.data());
  return out;
}

}  // namespace

std::shared_ptr<MuxClient> MuxClient::Create(
    std::shared_ptr<osal::Reactor> reactor, std::string host, uint16_t port) {
  auto client = std::shared_ptr<MuxClient>(
      new MuxClient(reactor, std::move(host), port));
  // The sweep ticker can fire (and take mutex_) the instant AddTicker
  // returns; publish the id under the same lock Close() reads it with.
  MutexLock lock(client->mutex_);
  client->ticker_id_ = reactor->AddTicker(
      std::chrono::milliseconds(50),
      [weak = std::weak_ptr<MuxClient>(client)] {
        if (auto self = weak.lock()) self->SweepDeadlines();
      });
  return client;
}

MuxClient::~MuxClient() { Close(); }

void MuxClient::Close() {
  std::vector<Fired> fired;
  uint64_t ticker = 0;
  {
    MutexLock lock(mutex_);
    if (closed_) return;
    closed_ = true;
    ticker = ticker_id_;
    ticker_id_ = 0;
    ConnDeadLocked(&fired, UnavailableError("mux client closed"));
  }
  if (ticker != 0) {
    if (const auto reactor = reactor_.lock()) reactor->RemoveTicker(ticker);
  }
  Fire(fired);
}

bool MuxClient::connected() const {
  MutexLock lock(mutex_);
  return connected_;
}

size_t MuxClient::streams_in_flight() const {
  MutexLock lock(mutex_);
  return streams_.size();
}

Status MuxClient::StartStream(const std::string& function, rr::Buffer payload,
                              uint64_t token, Nanos transfer_deadline,
                              DoneFn done) {
  if (function.empty() || function.size() > kMaxMuxFunctionName) {
    return InvalidArgumentError("function name length invalid");
  }
  if (payload.size() > serde::kMaxFrameBytes || payload.size() > UINT32_MAX) {
    return InvalidArgumentError("payload exceeds the frame size cap");
  }
  if (done == nullptr) return InvalidArgumentError("null completion callback");
  // Captured on the caller's thread, while its dispatch span is active: the
  // agent-side spans join the SENDER's trace.
  const obs::SpanContext trace = obs::CurrentSpanContext();
  std::vector<Fired> fired;
  {
    MutexLock lock(mutex_);
    if (closed_) return FailedPreconditionError("mux client closed");
    if (!connected_) {
      // Dial with the lock RELEASED: the reactor's OnEvent/SweepDeadlines
      // contend this mutex, so a blocking connect to a slow or unreachable
      // host held under it would stall the shared loop — freezing every
      // other agent's streams for the duration. A concurrent caller may
      // connect first while we dial; the loser's socket is simply dropped
      // (the agent sees a preamble followed by EOF and tears it down).
      lock.unlock();
      Result<osal::Connection> conn = Dial();
      lock.lock();
      if (closed_) return FailedPreconditionError("mux client closed");
      if (!conn.ok()) return conn.status();
      if (!connected_) RR_RETURN_IF_ERROR(InstallLocked(std::move(*conn)));
    }

    const uint32_t id = next_stream_id_++;
    const bool traced = trace.trace_id != 0;
    const size_t open_len = 18 + function.size() + (traced ? 16 : 0);
    Bytes open(kMuxFrameHeaderBytes + open_len);
    MuxFrameHeader h;
    h.type = kMuxFrameOpen;
    h.flags = traced ? kMuxFlagTrace : 0;
    h.stream_id = id;
    h.payload_length = static_cast<uint32_t>(open_len);
    EncodeMuxFrameHeader(h, open.data());
    uint8_t* p = open.data() + kMuxFrameHeaderBytes;
    StoreLE<uint64_t>(p, token);
    StoreLE<uint64_t>(p + 8, payload.size());
    StoreLE<uint16_t>(p + 16, static_cast<uint16_t>(function.size()));
    std::memcpy(p + 18, function.data(), function.size());
    if (traced) {
      StoreLE<uint64_t>(p + 18 + function.size(), trace.trace_id);
      StoreLE<uint64_t>(p + 18 + function.size() + 8, trace.span_id);
    }

    Stream s;
    const bool has_body = !payload.empty();
    s.payload = std::move(payload);
    s.progress_budget = transfer_deadline;
    s.last_progress = Now();
    s.done = std::move(done);
    streams_.emplace(id, std::move(s));
    control_.push_back(std::move(open));
    if (has_body) ring_.push_back(id);
    if (resilience::FaultInjector::Instance().ShouldFire(
            resilience::FaultSite::kMuxConnReset)) {
      // Chaos hook: a mid-flight RST right after this stream staged — every
      // stream sharing the connection fails kUnavailable, exactly the blast
      // radius a real peer reset delivers.
      ConnDeadLocked(&fired,
                     UnavailableError("fault injection: connection reset"));
    } else if (!PumpLocked()) {
      ConnDeadLocked(&fired, UnavailableError("mux agent connection lost"));
    }
  }
  Fire(fired);
  return Status::Ok();
}

// Blocking connect + preamble. Touches only immutable members (host_,
// port_): callable WITHOUT the lock, so a slow connect never blocks the
// reactor threads that contend mutex_.
Result<osal::Connection> MuxClient::Dial() {
  RR_ASSIGN_OR_RETURN(osal::Connection conn, osal::TcpConnect(host_, port_));
  conn.SetNoDelay(true);
  uint8_t preamble[kMuxPreambleBytes];
  StoreLE<uint16_t>(preamble, kMuxPreambleMagic);
  preamble[2] = kMuxVersion;
  preamble[3] = 0;
  RR_RETURN_IF_ERROR(conn.Send(ByteSpan(preamble, kMuxPreambleBytes)));
  RR_RETURN_IF_ERROR(osal::SetNonBlocking(conn.fd(), true));
  return conn;
}

Status MuxClient::InstallLocked(osal::Connection conn) {
  fd_ = conn.TakeFd();
  ++conn_gen_;
  rneed_ = kMuxFrameHeaderBytes;
  rgot_ = 0;
  rheader_pending_ = false;
  out_ = OutFrame{};
  const auto reactor = reactor_.lock();
  if (reactor == nullptr) {
    fd_.Reset();
    return FailedPreconditionError("mux client reactor is gone");
  }
  const Status added = reactor->Add(
      fd_.get(), osal::Epoll::kReadable,
      [weak = weak_from_this(), gen = conn_gen_](uint32_t events) {
        if (auto self = weak.lock()) self->OnEvent(gen, events);
      });
  if (!added.ok()) {
    fd_.Reset();
    return added;
  }
  connected_ = true;
  writable_armed_ = false;
  return Status::Ok();
}

// rr-lint: reactor-thread
void MuxClient::OnEvent(uint64_t gen, uint32_t events) {
  std::vector<Fired> fired;
  {
    MutexLock lock(mutex_);
    if (!connected_ || gen != conn_gen_) return;  // stale: past a reconnect
    bool alive = true;
    if (events & osal::Epoll::kError) {
      alive = false;
    } else {
      if (events & osal::Epoll::kReadable) alive = ReadLocked(&fired);
      // Window updates may have re-armed streams; flush regardless of which
      // readiness bit woke us.
      if (alive) alive = PumpLocked();
    }
    if (!alive) {
      ConnDeadLocked(&fired, UnavailableError("mux agent connection lost"));
    }
  }
  Fire(fired);
}

bool MuxClient::ReadLocked(std::vector<Fired>* fired) {
  uint8_t buf[64 * 1024];
  while (true) {
    // Never blocks (MSG_DONTWAIT).  rr-lint: allow(reactor-blocking)
    const ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return false;  // agent closed (idle sweep or shutdown)
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    ByteSpan data(buf, static_cast<size_t>(n));
    while (!data.empty()) {
      const size_t take = std::min<size_t>(data.size(), rneed_ - rgot_);
      std::memcpy(racc_ + rgot_, data.data(), take);
      rgot_ += take;
      data = data.subspan(take);
      if (rgot_ < rneed_) break;
      if (!HandleFrameLocked(fired)) return false;
    }
    if (static_cast<size_t>(n) < sizeof(buf)) return true;
  }
}

bool MuxClient::HandleFrameLocked(std::vector<Fired>* fired) {
  if (!rheader_pending_) {
    const MuxFrameHeader h = DecodeMuxFrameHeader(racc_);
    const Status valid = ValidateMuxFrameHeader(h, /*receiver_is_agent=*/false);
    if (!valid.ok()) {
      RR_LOG(Warning) << "mux client: " << valid;
      return false;
    }
    if (h.type == kMuxFrameWindowUpdate) {
      const auto it = streams_.find(h.stream_id);
      if (it != streams_.end()) {  // unknown stream: completion raced it
        Stream& s = it->second;
        s.window += h.aux;
        s.last_progress = Now();
        if (s.stalled && s.offset < s.payload.size() && s.window > 0) {
          s.stalled = false;
          ring_.push_back(h.stream_id);
        }
      }
      rneed_ = kMuxFrameHeaderBytes;
      rgot_ = 0;
      return true;
    }
    // kCompletion (the only other sender-bound type).
    if (static_cast<uint8_t>(h.aux) != h.aux ||
        static_cast<uint8_t>(h.aux) > kMaxWireStatusCode) {
      RR_LOG(Warning) << "mux client: implausible completion status code";
      return false;
    }
    if (h.payload_length > 0) {
      rh_ = h;
      rheader_pending_ = true;
      rneed_ = h.payload_length;
      rgot_ = 0;
      return true;
    }
    rh_ = h;
  }
  // A complete completion frame: header in rh_, detail (if any) in racc_.
  const StatusCode code = static_cast<StatusCode>(rh_.aux);
  std::string detail;
  if (rheader_pending_) {
    detail.assign(reinterpret_cast<const char*>(racc_), rneed_);
  }
  rheader_pending_ = false;
  rneed_ = kMuxFrameHeaderBytes;
  rgot_ = 0;
  const auto it = streams_.find(rh_.stream_id);
  if (it == streams_.end()) return true;  // tolerated: raced our cancel
  Fired done{std::move(it->second.done),
             code == StatusCode::kOk
                 ? Status::Ok()
                 : Status(code, detail.empty() ? "remote invocation failed"
                                               : detail)};
  streams_.erase(it);
  fired->push_back(std::move(done));
  return true;
}

bool MuxClient::PumpLocked() {
  while (true) {
    if (!out_.active) {
      if (!StageNextLocked()) {
        SetWritableLocked(false);
        return true;
      }
    }
    while (out_.part < out_.parts.size()) {
      const ByteSpan p = out_.parts[out_.part];
      if (out_.part_offset == p.size()) {
        ++out_.part;
        out_.part_offset = 0;
        continue;
      }
      const ssize_t n =
          ::send(fd_.get(), p.data() + out_.part_offset,
                 p.size() - out_.part_offset, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          SetWritableLocked(true);
          return true;
        }
        return false;
      }
      out_.part_offset += static_cast<size_t>(n);
    }
    // Frame fully flushed: a data frame's body_ref holds its payload bytes,
    // a control frame's is empty.
    WireFramesSent().Inc();
    WireBytesSent().Inc(out_.body_ref.size());
    out_ = OutFrame{};
  }
}

bool MuxClient::StageNextLocked() {
  if (!control_.empty()) {
    out_.active = true;
    out_.control = std::move(control_.front());
    control_.pop_front();
    out_.body_ref = rr::Buffer();
    out_.parts.assign(1, ByteSpan(out_.control.data(), out_.control.size()));
    out_.part = 0;
    out_.part_offset = 0;
    return true;
  }
  // Fair round-robin: one quantum per turn per stream.
  while (!ring_.empty()) {
    const uint32_t id = ring_.front();
    ring_.pop_front();
    const auto it = streams_.find(id);
    if (it == streams_.end()) continue;  // completed or cancelled meanwhile
    Stream& s = it->second;
    if (s.offset >= s.payload.size()) continue;
    if (s.window == 0) {
      if (!s.stalled) {
        s.stalled = true;
        StreamStalls().Inc();
      }
      continue;
    }
    const size_t n = std::min(
        {kMuxMaxChunk, s.payload.size() - s.offset, s.window});
    MuxFrameHeader h;
    h.type = kMuxFrameData;
    h.stream_id = id;
    h.payload_length = static_cast<uint32_t>(n);
    EncodeMuxFrameHeader(h, out_.header);
    out_.active = true;
    out_.control.clear();
    // The frame references the payload's chunks directly (no byte copy);
    // body_ref keeps that storage alive even if the stream dies mid-write.
    out_.body_ref = s.payload.Slice(s.offset, n);
    out_.parts.clear();
    out_.parts.emplace_back(out_.header, kMuxFrameHeaderBytes);
    for (size_t i = 0; i < out_.body_ref.chunk_count(); ++i) {
      out_.parts.push_back(out_.body_ref.chunk(i));
    }
    out_.part = 0;
    out_.part_offset = 0;
    s.offset += n;
    s.window -= n;
    s.last_progress = Now();
    if (s.offset < s.payload.size()) {
      if (s.window > 0) {
        ring_.push_back(id);
      } else if (!s.stalled) {
        s.stalled = true;
        StreamStalls().Inc();
      }
    }
    return true;
  }
  return false;
}

void MuxClient::SetWritableLocked(bool writable) {
  if (!connected_ || writable_armed_ == writable) return;
  writable_armed_ = writable;
  if (const auto reactor = reactor_.lock()) {
    // Best-effort: Modify only fails if the fd was already dropped from the
    // epoll set, and connection teardown handles that path.
    (void)reactor->Modify(fd_.get(),
                          osal::Epoll::kReadable |
                              (writable ? osal::Epoll::kWritable : 0u));
  }
}

// Body-drain progress deadline: a stream still sending must have moved
// (bytes out, window granted, or completed) within its budget. Streams whose
// body is fully sent are exempt — the remote invocation runs under the
// caller's own backstop, not ours.
void MuxClient::SweepDeadlines() {
  std::vector<Fired> fired;
  {
    MutexLock lock(mutex_);
    if (!connected_) return;
    const TimePoint now = Now();
    std::vector<uint32_t> expired;
    for (const auto& [id, s] : streams_) {
      if (s.offset < s.payload.size() && s.progress_budget > Nanos{0} &&
          now - s.last_progress > s.progress_budget) {
        expired.push_back(id);
      }
    }
    for (const uint32_t id : expired) {
      const auto it = streams_.find(id);
      fired.emplace_back(
          std::move(it->second.done),
          DeadlineExceededError(
              "stream made no progress within the transfer deadline "
              "(flow-control starved or agent wedged)"));
      streams_.erase(it);
      control_.push_back(EncodeCancel(id));
    }
    if (!expired.empty() && !PumpLocked()) {
      ConnDeadLocked(&fired, UnavailableError("mux agent connection lost"));
    }
  }
  Fire(fired);
}

void MuxClient::ConnDeadLocked(std::vector<Fired>* fired,
                               const Status& reason) {
  for (auto& [id, s] : streams_) {
    fired->emplace_back(std::move(s.done), reason);
  }
  streams_.clear();
  ring_.clear();
  control_.clear();
  out_ = OutFrame{};
  if (connected_) {
    // A dead lock() means the reactor is tearing down; closing the fd below
    // removes it from the epoll set anyway.
    if (const auto reactor = reactor_.lock()) (void)reactor->Remove(fd_.get());
    connected_ = false;
    writable_armed_ = false;
  }
  fd_.Reset();
}

void MuxClient::Fire(std::vector<Fired>& fired) {
  for (auto& [done, status] : fired) {
    if (done) done(status);
  }
}

}  // namespace rr::core
