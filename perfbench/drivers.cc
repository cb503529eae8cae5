#include "drivers.h"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "http_client.h"

namespace perfbench {
namespace {

using rr::Nanos;
using rr::Now;
using rr::TimePoint;

// How long unanswered requests are waited for after the last send.
constexpr Nanos kDrainWindow = std::chrono::seconds(5);

double Micros(Nanos d) { return static_cast<double>(d.count()) / 1e3; }

int64_t SinceEpochNs(TimePoint t) { return t.time_since_epoch().count(); }

// One verified completion: when it finished and how long it took.
struct Completion {
  int64_t done_ns;
  double latency_us;
};

void SetLatencies(std::vector<Completion> completions, PhaseResult& result) {
  std::sort(completions.begin(), completions.end(),
            [](const Completion& a, const Completion& b) {
              return a.done_ns < b.done_ns;
            });
  result.latency_us.reserve(completions.size());
  for (const Completion& c : completions) {
    result.latency_us.push_back(c.latency_us);
  }
}

Failure Check(const rr::Result<rr::Buffer>& result, rr::ByteSpan input,
              const ExpectedOutput& expected) {
  if (!result.ok()) return Failure::kBadStatus;
  return OutputMatches(ChunksOf(*result), input, expected) ? Failure::kNone
                                                           : Failure::kMismatch;
}

// A completion timestamp set by the run's NotifyDone callback. The callback
// may run just after Wait() returns, so readers spin until it lands.
using DoneSlot = std::shared_ptr<std::atomic<int64_t>>;

DoneSlot WatchCompletion(rr::api::Invocation& invocation) {
  auto slot = std::make_shared<std::atomic<int64_t>>(0);
  invocation.NotifyDone(
      [slot] { slot->store(SinceEpochNs(Now()), std::memory_order_release); });
  return slot;
}

int64_t AwaitSlot(const DoneSlot& slot) {
  int64_t done = 0;
  while ((done = slot->load(std::memory_order_acquire)) == 0) {
    std::this_thread::yield();
  }
  return done;
}

}  // namespace

PhaseResult RunClosedLoop(Fixture& fixture, const InputFactory& inputs,
                          size_t callers, const PhaseOptions& options,
                          std::atomic<uint64_t>& ids) {
  struct CallerState {
    Tally tally;
    std::vector<Completion> completions;
    std::vector<RunRecord> records;
    int64_t cpu_ns = 0;
  };
  std::vector<CallerState> states(callers);
  std::atomic<uint64_t> issued{0};

  PhaseResult result;
  result.before = TakeSnapshot(fixture.agent());
  const TimePoint start = result.before.wall;
  const TimePoint deadline = start + options.duration;

  const auto caller = [&](CallerState& state) {
    const int64_t cpu_start = ThreadCpuNanos();
    while (true) {
      if (options.max_requests > 0) {
        if (issued.fetch_add(1) >= options.max_requests) break;
      } else if (Now() >= deadline) {
        break;
      }
      const uint64_t id = ids.fetch_add(1);
      const rr::Buffer input = rr::Buffer::Adopt(inputs.Make(id));
      const TimePoint t0 = Now();
      auto invocation = fixture.Submit(input);
      const TimePoint t1 = Now();
      if (!invocation.ok()) {
        state.tally.Record(Failure::kRefused);
        continue;
      }
      const DoneSlot done =
          options.traced ? WatchCompletion(**invocation) : nullptr;
      const rr::Result<rr::Buffer>& output = (*invocation)->Wait();
      const TimePoint t2 = Now();
      const Failure failure = Check(output, input.chunk(0), fixture.expected());
      state.tally.Record(failure);
      if (failure != Failure::kNone) continue;
      state.completions.push_back({SinceEpochNs(t2), Micros(t2 - t0)});
      if (options.traced) {
        const int64_t notified = AwaitSlot(done);
        RunRecord record;
        record.id = id;
        record.latency_us = Micros(t2 - t0);
        record.submit_us = Micros(t1 - t0);
        record.wake_us =
            static_cast<double>(SinceEpochNs(t2) - notified) / 1e3;
        record.stats = (*invocation)->stats();
        state.records.push_back(std::move(record));
      }
    }
    state.cpu_ns = ThreadCpuNanos() - cpu_start;
  };

  std::vector<std::thread> threads;
  for (CallerState& state : states) threads.emplace_back(caller, std::ref(state));
  for (std::thread& thread : threads) thread.join();

  result.after = TakeSnapshot(fixture.agent());
  std::vector<Completion> completions;
  int64_t last_done = SinceEpochNs(start);
  for (CallerState& state : states) {
    result.tally.Add(state.tally);
    result.generator_cpu_ns += state.cpu_ns;
    for (const Completion& c : state.completions) {
      last_done = std::max(last_done, c.done_ns);
    }
    completions.insert(completions.end(), state.completions.begin(),
                       state.completions.end());
    std::move(state.records.begin(), state.records.end(),
              std::back_inserter(result.records));
  }
  result.wall_s =
      static_cast<double>(last_done - SinceEpochNs(start)) / 1e9;
  SetLatencies(std::move(completions), result);
  return result;
}

namespace {

// One keep-alive client connection of the HTTP generator.
struct ClientConn {
  int fd = -1;
  std::string outbox;
  size_t outbox_sent = 0;
  bool want_write = false;
  ResponseReader reader;
  struct Pending {
    TimePoint sent;
    uint64_t id;
  };
  std::deque<Pending> pending;
};

class HttpGenerator {
 public:
  HttpGenerator(Fixture& fixture, const InputFactory& inputs,
                std::atomic<uint64_t>& ids, PhaseResult& result)
      : fixture_(fixture),
        inputs_(inputs),
        ids_(ids),
        result_(result),
        head_(RequestHead(kHttpRoute, inputs.size())),
        scratch_(inputs.size()) {}

  ~HttpGenerator() {
    for (ClientConn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  HttpGenerator(const HttpGenerator&) = delete;
  HttpGenerator& operator=(const HttpGenerator&) = delete;

  void Run(size_t connections, const PhaseOptions& options) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    conns_.resize(connections);
    for (size_t i = 0; i < connections; ++i) {
      conns_[i].fd = ConnectLoopback(fixture_.gateway_port());
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.u64 = i;
      if (conns_[i].fd < 0 || epoll_fd_ < 0 ||
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conns_[i].fd, &event) != 0) {
        result_.tally.Record(Failure::kTransport);
        return;
      }
    }

    result_.before = TakeSnapshot(fixture_.agent());
    const TimePoint start = result_.before.wall;
    last_done_ = start;
    deadline_ = start + options.duration;
    max_requests_ = options.max_requests;
    // One request in flight per connection; each response sends the next.
    for (size_t i = 0; i < conns_.size(); ++i) SendNext(i);

    TimePoint drain_deadline = TimePoint::max();
    epoll_event events[16];
    while (outstanding_ > 0) {
      const TimePoint now = Now();
      if (now >= deadline_ && drain_deadline == TimePoint::max()) {
        drain_deadline = now + kDrainWindow;
      }
      if (now >= drain_deadline) break;
      const int n = ::epoll_wait(epoll_fd_, events, 16, 10);
      if (n < 0 && errno != EINTR) break;
      for (int e = 0; e < n; ++e) {
        const size_t index = events[e].data.u64;
        if (conns_[index].fd < 0) continue;
        if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) Read(index);
        if (conns_[index].fd >= 0 && (events[e].events & EPOLLOUT)) {
          Flush(index);
        }
      }
    }
    // Sent but unanswered by the drain deadline.
    for (ClientConn& conn : conns_) {
      for (size_t i = 0; i < conn.pending.size(); ++i) {
        result_.tally.Record(Failure::kTimeout);
      }
      conn.pending.clear();
    }
    result_.after = TakeSnapshot(fixture_.agent());
    result_.wall_s = rr::ToSeconds(last_done_ - start);
  }

  std::vector<Completion>& completions() { return completions_; }

 private:
  // Sends the next request on connection `index`, unless the phase is over.
  void SendNext(size_t index) {
    ClientConn& conn = conns_[index];
    const bool over = max_requests_ > 0 ? sent_ >= max_requests_
                                         : Now() >= deadline_;
    if (conn.fd < 0 || over) return;
    ++sent_;
    const uint64_t id = ids_.fetch_add(1);
    const size_t head = conn.outbox.size();
    conn.outbox.append(head_);
    conn.outbox.resize(head + head_.size() + inputs_.size());
    inputs_.Fill(id, reinterpret_cast<uint8_t*>(conn.outbox.data()) + head +
                         head_.size());
    conn.pending.push_back({Now(), id});
    ++outstanding_;
    Flush(index);
  }

  void Flush(size_t index) {
    ClientConn& conn = conns_[index];
    while (conn.outbox_sent < conn.outbox.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.outbox.data() + conn.outbox_sent,
                 conn.outbox.size() - conn.outbox_sent, MSG_NOSIGNAL);
      if (n > 0) {
        conn.outbox_sent += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        Watch(index, EPOLLIN | EPOLLOUT, true);
        return;
      }
      Retire(index);
      return;
    }
    conn.outbox.clear();
    conn.outbox_sent = 0;
    if (conn.want_write) Watch(index, EPOLLIN, false);
  }

  void Watch(size_t index, uint32_t mask, bool want_write) {
    ClientConn& conn = conns_[index];
    if (conn.want_write == want_write) return;
    conn.want_write = want_write;
    epoll_event event{};
    event.events = mask;
    event.data.u64 = index;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event) != 0) {
      Retire(index);
    }
  }

  void Read(size_t index) {
    ClientConn& conn = conns_[index];
    char buffer[64 * 1024];
    while (conn.fd >= 0) {
      const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        conn.reader.Append(buffer, static_cast<size_t>(n));
        if (!Deliver(index)) return;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      Retire(index);  // EOF or hard error
      return;
    }
  }

  // Matches every complete response to its request (FIFO per connection).
  bool Deliver(size_t index) {
    ClientConn& conn = conns_[index];
    while (true) {
      int status = 0;
      std::string_view body;
      const ResponseReader::Next next = conn.reader.Peek(&status, &body);
      if (next == ResponseReader::Next::kNeedMore) return true;
      if (next == ResponseReader::Next::kMalformed || conn.pending.empty()) {
        Retire(index);
        return false;
      }
      const TimePoint now = Now();
      const ClientConn::Pending request = conn.pending.front();
      conn.pending.pop_front();
      --outstanding_;
      Failure failure = Failure::kBadStatus;
      if (status == 200) {
        inputs_.Fill(request.id, scratch_.data());
        const std::vector<rr::ByteSpan> actual = {rr::AsBytes(body)};
        failure = OutputMatches(actual, scratch_, fixture_.expected())
                      ? Failure::kNone
                      : Failure::kMismatch;
      } else if (status == 429) {
        failure = Failure::kRefused;
      }
      result_.tally.Record(failure);
      if (failure == Failure::kNone) {
        completions_.push_back({SinceEpochNs(now), Micros(now - request.sent)});
        last_done_ = std::max(last_done_, now);
      }
      conn.reader.Consume();
      SendNext(index);
    }
  }

  // A torn connection fails everything it still owed.
  void Retire(size_t index) {
    ClientConn& conn = conns_[index];
    if (conn.fd < 0) return;
    for (size_t i = 0; i < conn.pending.size(); ++i) {
      result_.tally.Record(Failure::kTransport);
    }
    outstanding_ -= conn.pending.size();
    conn.pending.clear();
    ::close(conn.fd);
    conn.fd = -1;
  }

  Fixture& fixture_;
  const InputFactory& inputs_;
  std::atomic<uint64_t>& ids_;
  PhaseResult& result_;
  const std::string head_;
  rr::Bytes scratch_;
  int epoll_fd_ = -1;
  std::vector<ClientConn> conns_;
  size_t outstanding_ = 0;
  uint64_t sent_ = 0;
  uint64_t max_requests_ = 0;
  TimePoint deadline_{};
  TimePoint last_done_{};
  std::vector<Completion> completions_;
};

}  // namespace

PhaseResult RunClosedLoopHttp(Fixture& fixture, const InputFactory& inputs,
                              size_t connections, const PhaseOptions& options,
                              std::atomic<uint64_t>& ids) {
  PhaseResult result;
  std::thread generator([&] {
    // The generator's own sends and receives are not the middleware's.
    ExemptThisThread();
    const int64_t cpu_start = ThreadCpuNanos();
    HttpGenerator gen(fixture, inputs, ids, result);
    gen.Run(connections, options);
    SetLatencies(std::move(gen.completions()), result);
    result.generator_cpu_ns = ThreadCpuNanos() - cpu_start;
  });
  generator.join();
  return result;
}

}  // namespace perfbench
