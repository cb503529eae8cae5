#include "dag/scheduler.h"

#include <algorithm>

#include "obs/metrics.h"

namespace rr::dag {
namespace {

// Level of the shared ready queue: nodes dispatched but not yet picked up.
// Sampled under the queue lock, so Set always publishes a consistent depth.
obs::Gauge& QueueDepth() {
  static obs::Gauge* gauge = obs::Registry::Get().gauge(
      "rr_dag_queue_depth", "Ready DAG nodes waiting for a pool worker");
  return *gauge;
}

}  // namespace

DagScheduler::DagScheduler(size_t workers) {
  if (workers == 0) {
    workers = std::max<size_t>(2, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

DagScheduler::~DagScheduler() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

Status DagScheduler::Run(const Dag& dag, const NodeFn& fn) {
  RunState state;
  state.dag = &dag;
  state.fn = &fn;
  state.remaining_preds.resize(dag.size());
  for (size_t i = 0; i < dag.size(); ++i) {
    state.remaining_preds[i] = dag.node(i).preds.size();
  }

  MutexLock lock(mutex_);
  for (const size_t source : dag.sources()) {
    queue_.push_back({&state, source});
    // One wakeup per enqueued item: notify_all would stampede the whole
    // pool through the mutex for a run that may have a single source.
    work_cv_.notify_one();
  }
  state.outstanding = dag.sources().size();
  QueueDepth().Set(static_cast<int64_t>(queue_.size()));

  // A validated Dag is non-empty, so outstanding starts > 0 and reaches 0
  // exactly when every reachable (non-cancelled) node has finished —
  // deferred nodes included, their Tickets being what decrements it.
  state.done_cv.wait(lock, [this, &state]() RR_REQUIRES(mutex_) {
    return state.outstanding == 0;
  });
  return state.first_error;
}

void DagScheduler::WorkerLoop() {
  MutexLock lock(mutex_);
  Work next;  // a successor kept by the previous retirement, if any
  for (;;) {
    if (next.state == nullptr) {
      work_cv_.wait(lock, [this]() RR_REQUIRES(mutex_) {
        return stopping_ || !queue_.empty();
      });
      if (stopping_) return;
      next = queue_.front();
      queue_.pop_front();
      QueueDepth().Set(static_cast<int64_t>(queue_.size()));
    }
    const auto [state, node] = next;
    next = Work{};

    Status status;
    bool deferred = false;
    if (!state->cancelled) {
      lock.unlock();
      const DeferFn defer = [this, state = state, node = node, &deferred] {
        deferred = true;
        Ticket ticket;
        ticket.slot_ = std::make_shared<Ticket::Slot>();
        ticket.slot_->scheduler = this;
        ticket.slot_->state = state;
        ticket.slot_->node = node;
        return ticket;
      };
      status = (*state->fn)(node, defer);
      lock.lock();
    }
    // else: the run failed while this node sat queued — retire it unrun.

    // A deferred node retires through its Ticket — possibly already has, on
    // another thread, in which case the run may be GONE: state must not be
    // touched past this point.
    if (deferred) continue;
    RetireLocked(state, node, std::move(status), &next);
  }
}

void DagScheduler::RetireLocked(RunState* state, size_t node, Status status,
                                Work* keep) {
  if (!status.ok()) {
    if (state->first_error.ok()) {
      state->first_error =
          Status(status.code(), "node " + state->dag->node(node).name + ": " +
                                    status.message());
    }
    state->cancelled = true;
  } else if (!state->cancelled) {
    for (const size_t succ : state->dag->node(node).succs) {
      if (--state->remaining_preds[succ] != 0) continue;
      ++state->outstanding;
      if (keep != nullptr && keep->state == nullptr) {
        *keep = Work{state, succ};  // the retiring worker runs it next
        continue;
      }
      queue_.push_back({state, succ});
      // One notify per queued item engages exactly as many extra workers as
      // there is extra work.
      work_cv_.notify_one();
    }
    QueueDepth().Set(static_cast<int64_t>(queue_.size()));
  }
  // Notified under mutex_: the caller cannot observe outstanding == 0 and
  // destroy the run (and its condition variable) before this returns.
  if (--state->outstanding == 0) state->done_cv.notify_one();
}

void DagScheduler::Ticket::Complete(Status status) {
  const std::shared_ptr<Slot> slot = slot_;
  if (slot == nullptr || slot->completed.exchange(true)) return;
  DagScheduler* const scheduler = slot->scheduler;
  MutexLock lock(scheduler->mutex_);
  scheduler->RetireLocked(slot->state, slot->node, std::move(status),
                          /*keep=*/nullptr);
}

}  // namespace rr::dag
