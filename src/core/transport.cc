#include "core/transport.h"

#include "common/mutex.h"
#include <atomic>
#include <thread>

#include <map>

#include "core/kernel_channel.h"
#include "core/mux_client.h"
#include "core/network_channel.h"
#include "core/node_agent.h"
#include "core/region_guard.h"
#include "core/user_channel.h"
#include "osal/reactor.h"

namespace rr::core {

namespace {

// Locks both instances' memory planes for the duration of a guest-direct
// transfer: the source instance may already be mid-invocation for another
// run (its pool re-leased it after the producing invocation returned), and
// the target is the caller's leased instance, whose memory a payload
// consumer of an OLDER region may touch concurrently. MutexPairLock's
// deadlock-avoidance handles opposing pairs (a->b vs b->a) and the
// degenerate self-hop (same instance both sides) locks once.
class PairLock {
 public:
  PairLock(Shim& source, Shim& target)
      : both_(source.exec_mutex(), target.exec_mutex()) {}

 private:
  MutexPairLock both_;
};

// Pins a fan-in gather slice as the receive destination: the frame length
// must match the slice the executor carved out of the merged region.
RegionPlacer SlicePlacer(const MemoryRegion into) {
  return [into](uint32_t length) -> Result<MemoryRegion> {
    if (length != into.length) {
      return InternalError("fan-in slice length mismatch: frame carries " +
                           std::to_string(length) + " bytes for a " +
                           std::to_string(into.length) + "-byte slice");
    }
    return into;
  };
}

// --- user space -------------------------------------------------------------
// Channel construction is two pointer assignments; the hop holds no wire
// state at all. Exclusivity of both linear memories comes from the pool
// layer: the caller leased `target`, and a guest-resident payload's source
// instance is pinned by the payload.
class UserSpaceHop : public Hop {
 public:
  Result<MemoryRegion> Forward(const Payload& payload, Shim& target,
                               TransferTiming* timing,
                               const MemoryRegion* into) override {
    (void)timing;  // one in-process copy; no kernel/socket phase to split out
    if (payload.guest_resident()) {
      // Classic §4.1 path: the single user-space copy between the two
      // linear memories, straight from the producer's registered region.
      Shim& source = *payload.guest_shim();
      PairLock lock(source, target);
      RR_ASSIGN_OR_RETURN(UserSpaceChannel channel,
                          UserSpaceChannel::Create(&source, &target));
      return channel.Transfer(*payload.guest_region(), into);
    }
    // Host-resident payload (a fan-out's shared chunk): the hand-off was a
    // refcount bump; the only byte movement left is the unavoidable
    // guest-boundary write into the target, gathered over the chunks.
    RR_ASSIGN_OR_RETURN(const rr::Buffer buffer, payload.Materialize());
    MutexLock lock(target.exec_mutex());
    MemoryRegion dest;
    RegionGuard guard;
    if (into != nullptr) {
      dest = *into;  // caller-owned fan-in slice: never released here
    } else {
      RR_ASSIGN_OR_RETURN(
          dest, target.PrepareInput(static_cast<uint32_t>(buffer.size())));
      guard = RegionGuard(&target, dest);
    }
    RR_RETURN_IF_ERROR(target.WriteInput(dest, buffer));
    guard.Dismiss();
    return dest;
  }

  TransferMode mode() const override { return TransferMode::kUserSpace; }
};

class UserSpaceTransport : public Transport {
 public:
  TransferMode mode() const override { return TransferMode::kUserSpace; }

  Result<std::unique_ptr<Hop>> Connect(Endpoint& source,
                                       const Endpoint& target,
                                       const TransportOptions& /*options*/) override {
    // Validate the trust precondition once, at establishment. (No wire, no
    // deadline: the transfer is two in-process memory operations.)
    RR_RETURN_IF_ERROR(
        UserSpaceChannel::Create(source.shim, target.shim).status());
    return std::unique_ptr<Hop>(new UserSpaceHop());
  }
};

// --- kernel space -----------------------------------------------------------
// Both ends of the hop's AF_UNIX socketpair live in this process, so the
// forwarding thread moves the frame itself (PumpFrame): no sender thread, no
// hand-off. The paper's staging pattern is kept: the payload is read out of
// the source (Materialize, wasm_io), crosses the kernel into a shim buffer
// (transfer), and write_memory_host lands it in the target (wasm_io).
class KernelHop : public Hop {
 public:
  KernelHop(KernelChannelSender sender, KernelChannelReceiver receiver,
            Nanos transfer_deadline)
      : sender_(std::move(sender)),
        receiver_(std::move(receiver)),
        transfer_deadline_(transfer_deadline) {}

  TransferMode mode() const override { return TransferMode::kKernelSpace; }

  // False once a transfer died with its frame part-way across: the pair is
  // out of frame sync, so the executor evicts the hop and the next transfer
  // connects a fresh socketpair.
  bool healthy() const override {
    return wire_ok_.load(std::memory_order_relaxed);
  }

  Result<MemoryRegion> Forward(const Payload& payload, Shim& target,
                               TransferTiming* timing,
                               const MemoryRegion* into) override {
    // Egress (or the free refcounted read) happens before the wire lock: the
    // source instance serves other runs while this pair's wire is busy.
    TransferTiming egress{};
    RR_ASSIGN_OR_RETURN(const rr::Buffer buffer,
                        payload.Materialize(&egress.wasm_io));
    MutexLock hop_lock(mutex_);
    if (!healthy()) {
      return UnavailableError("kernel hop lost frame sync; awaiting eviction");
    }
    auto staged = PumpFrame(sender_, receiver_, rr::BufferView(buffer),
                            osal::DeadlineAfter(transfer_deadline_));
    if (!staged.ok()) {
      wire_ok_.store(false, std::memory_order_relaxed);
      return staged.status();
    }
    // The target's memory plane is locked only to land the received frame.
    MutexLock target_lock(target.exec_mutex());
    const RegionPlacer placer = into != nullptr ? SlicePlacer(*into) : nullptr;
    auto delivered = receiver_.DeliverStaged(
        target, *staged, into != nullptr ? &placer : nullptr);
    if (delivered.ok() && timing != nullptr) {
      *timing += egress;
      *timing += receiver_.last_timing();
    }
    return delivered;
  }

 private:
  Mutex mutex_;  // serializes concurrent transfers over this pair's wire
  KernelChannelSender sender_;
  KernelChannelReceiver receiver_;
  const Nanos transfer_deadline_;  // absolute bound on one frame's pump
  std::atomic<bool> wire_ok_{true};
};

class KernelTransport : public Transport {
 public:
  TransferMode mode() const override { return TransferMode::kKernelSpace; }

  Result<std::unique_ptr<Hop>> Connect(Endpoint& /*source*/,
                                       const Endpoint& /*target*/,
                                       const TransportOptions& options) override {
    RR_ASSIGN_OR_RETURN(auto pair, MakeKernelChannelPair());
    return std::unique_ptr<Hop>(new KernelHop(
        std::move(pair.first), std::move(pair.second),
        options.transfer_deadline));
  }
};

// --- network ----------------------------------------------------------------
// Two shapes, chosen by the target's ingress at Connect time: a loopback hop
// (target port 0) holds both channel halves in-process and behaves like a
// kernel hop over TCP; an agent hop (port != 0) holds just the sender — the
// remote NodeAgent owns receive + invoke (§4.3, Algorithm 1).
//
// Unlike the kernel hop, the loopback hop still sends on a second thread:
// its sender streams the body through the vmsplice hose and then BLOCKS on
// the receiver's delivery ack, so one thread could only drive it with a
// send/splice/ack state machine. Send and receive run concurrently, which
// also keeps a payload larger than the socket buffer from self-deadlocking.
class NetworkLoopbackHop : public Hop {
 public:
  NetworkLoopbackHop(NetworkChannelSender sender, NetworkChannelReceiver receiver)
      : sender_(std::move(sender)), receiver_(std::move(receiver)) {}

  TransferMode mode() const override { return TransferMode::kNetwork; }
  bool healthy() const override { return sender_.wire_ok(); }

  Result<MemoryRegion> Forward(const Payload& payload, Shim& target,
                               TransferTiming* timing,
                               const MemoryRegion* into) override {
    TransferTiming egress{};
    RR_ASSIGN_OR_RETURN(const rr::Buffer buffer,
                        payload.Materialize(&egress.wasm_io));
    MutexLock hop_lock(mutex_);
    MutexLock target_lock(target.exec_mutex());
    const RegionPlacer placer = into != nullptr ? SlicePlacer(*into) : nullptr;
    const rr::BufferView view(buffer);
    Status send_status;
    std::thread send_thread([&] { send_status = sender_.SendBuffer(view); });
    auto delivered =
        receiver_.ReceiveInto(target, CopyMode::kShimStaging,
                              /*token=*/nullptr,
                              into != nullptr ? &placer : nullptr);
    send_thread.join();
    RR_RETURN_IF_ERROR(send_status);
    if (delivered.ok() && timing != nullptr) {
      *timing += egress;
      *timing += sender_.last_timing();
      *timing += receiver_.last_timing();
    }
    return delivered;
  }

 private:
  Mutex mutex_;
  NetworkChannelSender sender_;
  NetworkChannelReceiver receiver_;
};

class NetworkAgentHop : public Hop {
 public:
  explicit NetworkAgentHop(NetworkChannelSender sender)
      : sender_(std::move(sender)) {}

  TransferMode mode() const override { return TransferMode::kNetwork; }
  bool invoke_coupled() const override { return true; }
  bool healthy() const override { return sender_.wire_ok(); }

  Result<MemoryRegion> Forward(const Payload& /*payload*/, Shim& /*target*/,
                               TransferTiming* /*timing*/,
                               const MemoryRegion* /*into*/) override {
    return FailedPreconditionError(
        "delivery through a NodeAgent ingress is invoke-coupled; Dispatch the "
        "frame and consume the agent's delivery callback");
  }

  Status Dispatch(const Payload& payload, uint64_t token,
                  TransferTiming* timing) override {
    TransferTiming egress{};
    RR_ASSIGN_OR_RETURN(const rr::Buffer buffer,
                        payload.Materialize(&egress.wasm_io));
    MutexLock hop_lock(mutex_);
    const Stopwatch transfer_timer;
    RR_RETURN_IF_ERROR(sender_.SendBuffer(buffer, token));
    egress.transfer = transfer_timer.Elapsed();
    if (timing != nullptr) *timing += egress;
    return Status::Ok();
  }

  // Deliberately lock-free: eviction closes hops that may have a Dispatch
  // blocked on mutex_ (that is the point — a delivery timed out), so Close
  // must not queue behind them. shutdown(2) is safe against concurrent I/O
  // on the descriptor; the blocked send fails with EPIPE and the agent-side
  // worker dies with the connection, dropping any frame still in flight.
  void Close() override { sender_.ShutdownWire(); }

 private:
  Mutex mutex_;
  NetworkChannelSender sender_;
};

// The mux wire's agent hop: a thin facade over the per-agent MuxClient that
// the transport shares across every (source, target) pair bound for the same
// host:port. Dispatch is fully async — DispatchAsync's callback carries the
// remote *invocation* outcome (completion frame), so a handler failure fails
// the edge immediately instead of waiting out a delivery deadline.
class MuxAgentHop : public Hop {
 public:
  MuxAgentHop(std::shared_ptr<MuxClient> client, std::string function,
              Nanos transfer_deadline)
      : client_(std::move(client)),
        function_(std::move(function)),
        transfer_deadline_(transfer_deadline) {}

  TransferMode mode() const override { return TransferMode::kNetwork; }
  bool invoke_coupled() const override { return true; }

  // Always healthy: the shared client reconnects transparently on the next
  // stream (an agent-side idle sweep is absorbed, not an eviction event).
  // Eviction of this hop object is therefore harmless churn — Close is a
  // no-op because the client (and its wire) belongs to every hop bound for
  // this agent, not to this pair.
  bool healthy() const override { return true; }
  void Close() override {}

  Result<MemoryRegion> Forward(const Payload& /*payload*/, Shim& /*target*/,
                               TransferTiming* /*timing*/,
                               const MemoryRegion* /*into*/) override {
    return FailedPreconditionError(
        "delivery through a NodeAgent ingress is invoke-coupled; Dispatch the "
        "frame and consume the agent's delivery callback");
  }

  Status Dispatch(const Payload& /*payload*/, uint64_t /*token*/,
                  TransferTiming* /*timing*/) override {
    return FailedPreconditionError(
        "mux agent hops are completion-driven; use DispatchAsync");
  }

  Status DispatchAsync(const Payload& payload, uint64_t token,
                       TransferTiming* timing, DispatchDoneFn done) override {
    TransferTiming egress{};
    RR_ASSIGN_OR_RETURN(const rr::Buffer buffer,
                        payload.Materialize(&egress.wasm_io));
    if (timing != nullptr) *timing += egress;
    // The stream holds a refcount on the payload's chunks; the caller may
    // release its own reference as soon as this returns OK.
    return client_->StartStream(function_, buffer, token, transfer_deadline_,
                                std::move(done));
  }

 private:
  const std::shared_ptr<MuxClient> client_;
  const std::string function_;
  const Nanos transfer_deadline_;
};

class NetworkTransport : public Transport {
 public:
  ~NetworkTransport() override {
    // Close clients first (their in-flight streams fail with kUnavailable
    // and fire their callbacks), then stop the loop they ran on.
    for (auto& [key, client] : clients_) client->Close();
    clients_.clear();
    if (client_reactor_ != nullptr) client_reactor_->Stop();
  }

  TransferMode mode() const override { return TransferMode::kNetwork; }

  Result<std::unique_ptr<Hop>> Connect(Endpoint& /*source*/,
                                       const Endpoint& target,
                                       const TransportOptions& options) override {
    if (target.port == 0) {
      // No external ingress registered: create a loopback listener on demand
      // (the in-process stand-in for the remote node's shim port).
      RR_ASSIGN_OR_RETURN(NetworkChannelListener listener,
                          NetworkChannelListener::Bind(0));
      RR_ASSIGN_OR_RETURN(
          NetworkChannelSender sender,
          NetworkChannelSender::Connect(target.host, listener.port()));
      RR_ASSIGN_OR_RETURN(NetworkChannelReceiver receiver, listener.Accept());
      sender.set_transfer_deadline(options.transfer_deadline);
      receiver.set_transfer_deadline(options.transfer_deadline);
      return std::unique_ptr<Hop>(
          new NetworkLoopbackHop(std::move(sender), std::move(receiver)));
    }
    if (options.agent_wire == TransportOptions::AgentWire::kMux) {
      // Route through the target node's agent on the multiplexed dialect:
      // one shared client (one connection, one reactor) per remote agent,
      // every pair's transfers interleaved as streams.
      RR_ASSIGN_OR_RETURN(std::shared_ptr<MuxClient> client,
                          ClientFor(target.host, target.port));
      return std::unique_ptr<Hop>(new MuxAgentHop(
          std::move(client), target.shim->name(), options.transfer_deadline));
    }
    // Legacy sequential dialect: the preamble names the function, the agent
    // hands the connection to its shim's receiver.
    RR_ASSIGN_OR_RETURN(
        NetworkChannelSender sender,
        ConnectToRemoteFunction(target.host, target.port, target.shim->name()));
    sender.set_transfer_deadline(options.transfer_deadline);
    return std::unique_ptr<Hop>(new NetworkAgentHop(std::move(sender)));
  }

 private:
  Result<std::shared_ptr<MuxClient>> ClientFor(const std::string& host,
                                               uint16_t port) {
    MutexLock lock(clients_mutex_);
    if (client_reactor_ == nullptr) {
      RR_ASSIGN_OR_RETURN(client_reactor_, osal::Reactor::Start("mux-client"));
    }
    const std::string key = host + ":" + std::to_string(port);
    auto& client = clients_[key];
    if (client == nullptr) {
      client = MuxClient::Create(client_reactor_, host, port);
    }
    return client;
  }

  Mutex clients_mutex_;
  std::shared_ptr<osal::Reactor> client_reactor_;
  std::map<std::string, std::shared_ptr<MuxClient>> clients_;
};

}  // namespace

Result<InvokeOutcome> Hop::ForwardAndInvoke(const Payload& payload,
                                            Shim& target,
                                            TransferTiming* timing) {
  RR_ASSIGN_OR_RETURN(const MemoryRegion delivered,
                      Forward(payload, target, timing));
  MutexLock shim_lock(target.exec_mutex());
  // A successful invoke consumes the input region; a failed one leaves it
  // allocated in the target's sandbox — the guard reclaims it.
  RegionGuard guard(&target, delivered);
  auto outcome = target.InvokeOnRegion(delivered);
  if (outcome.ok()) guard.Dismiss();
  return outcome;
}

Status Hop::Dispatch(const Payload& /*payload*/, uint64_t /*token*/,
                     TransferTiming* /*timing*/) {
  return FailedPreconditionError(
      "hop is not invoke-coupled; use Forward/ForwardAndInvoke");
}

Status Hop::DispatchAsync(const Payload& payload, uint64_t token,
                          TransferTiming* timing, DispatchDoneFn done) {
  // Synchronous adapter: on the legacy wire the blocking Dispatch ends at
  // the delivery ack, so done(Ok) means delivered — the invocation outcome
  // still arrives through the agent's delivery callback (or the caller's
  // backstop deadline).
  RR_RETURN_IF_ERROR(Dispatch(payload, token, timing));
  if (done) done(Status::Ok());
  return Status::Ok();
}

std::unique_ptr<Transport> MakeUserSpaceTransport() {
  return std::make_unique<UserSpaceTransport>();
}
std::unique_ptr<Transport> MakeKernelTransport() {
  return std::make_unique<KernelTransport>();
}
std::unique_ptr<Transport> MakeNetworkTransport() {
  return std::make_unique<NetworkTransport>();
}

}  // namespace rr::core
