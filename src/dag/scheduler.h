// DagScheduler: dependency-ordered dispatch onto a fixed worker pool.
//
// A node becomes ready when every predecessor completed successfully; ready
// nodes run on the pool, so independent branches (fan-out replicas, parallel
// pipelines) execute concurrently while joins wait for all of their inputs.
// The pool is fixed at construction: workflow width never translates into
// unbounded thread creation.
//
// Run is reentrant: any number of concurrent runs (api::Runtime keeps many
// invocations in flight) share the one pool, their ready nodes interleaved
// in one queue. Each run's bookkeeping lives on its caller's stack, so runs
// never contend on anything but the queue lock.
//
// Wake-up rules — a thread is woken only when there is work for it:
//  * Keep one successor. A worker whose node returns synchronously keeps ONE
//    newly-ready successor and runs it next in its own loop (not by
//    recursion, so a 10,000-node chain costs no stack). A chain of
//    synchronous nodes therefore runs start to finish on one worker with no
//    queue round-trip and no wake-up between its nodes.
//  * One notify per queued item. Every further newly-ready successor is
//    queued with exactly one notify_one, so a fan-out engages as many extra
//    workers as it has extra branches — parallelism is unchanged — and never
//    stampedes the whole pool through the lock.
//  * A per-run completion signal. Each run has its own condition variable;
//    the retirement that finishes a run wakes only that run's Run() caller,
//    not every driver parked on the scheduler.
//
// Nodes may complete ASYNCHRONOUSLY: a node task whose work finishes
// elsewhere (a remote dispatch whose outcome arrives as a completion frame)
// calls the `defer` handle it was given and returns immediately — the worker
// moves on to other nodes while the deferred node stays outstanding. Whoever
// finishes the work completes the returned Ticket with the node's final
// status, which runs the exact bookkeeping a synchronous return would have
// (successor release, cancellation, run completion) — except that a Ticket
// keeps no successor: it runs on reactor and sweeper threads, which must
// not execute node tasks, so every successor it releases is queued for the
// pool. This is what lets a fixed pool carry tens of thousands of in-flight
// remote edges: a parked node costs a map entry, not a parked thread.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dag/dag.h"

namespace rr::dag {

class DagScheduler {
 private:
  struct RunState;

 public:
  // Completion handle of one deferred node. Copyable — hand copies to the
  // success path, the failure path, and the deadline backstop; the FIRST
  // Complete across all copies wins and the rest are no-ops. A
  // default-constructed Ticket is empty (Complete is a no-op). The scheduler
  // must outlive every live Ticket — guaranteed while its owner does,
  // because a pending Ticket keeps its Run blocked.
  class Ticket {
   public:
    Ticket() = default;

    // Retires the deferred node with its final status: an error cancels the
    // run (first error wins, prefixed with the node's name), a success
    // enqueues newly-ready successors. Callable from any thread, including
    // before the deferring node task has returned to its worker.
    void Complete(Status status);

   private:
    friend class DagScheduler;
    struct Slot {
      DagScheduler* scheduler = nullptr;
      RunState* state = nullptr;
      size_t node = 0;
      std::atomic<bool> completed{false};
    };
    std::shared_ptr<Slot> slot_;
  };

  // Handed to each node task. Calling it marks the node deferred: the
  // scheduler then IGNORES the task's return value and the node stays
  // outstanding (successors unreleased, the run's Run() blocked) until the
  // returned Ticket completes. Only valid during the task invocation it was
  // passed to — do not store it.
  using DeferFn = std::function<Ticket()>;

  // The per-node task: invoked exactly once per node, possibly concurrently
  // with other nodes' tasks. A non-OK return cancels the run. A task whose
  // completion is asynchronous calls `defer` and arranges for the Ticket to
  // complete instead; its own return value is then ignored.
  using NodeFn = std::function<Status(size_t node_index, const DeferFn& defer)>;

  // 0 = one worker per hardware thread (at least 2, so single-core hosts
  // still overlap a slow hop with an independent branch).
  explicit DagScheduler(size_t workers = 0);
  ~DagScheduler();

  DagScheduler(const DagScheduler&) = delete;
  DagScheduler& operator=(const DagScheduler&) = delete;

  // Runs every node of `dag` respecting its edges and returns the first
  // error, if any. On failure no further nodes of that run are dispatched
  // (in-flight tasks finish; deferred nodes still complete through their
  // Tickets); downstream nodes never run. Blocks the caller until the run
  // completes — including every deferred node — so per-run state on the
  // caller's stack stays valid for exactly as long as tasks and Tickets can
  // reach it. Concurrent callers share the worker pool.
  Status Run(const Dag& dag, const NodeFn& fn);

  size_t worker_count() const { return workers_.size(); }

 private:
  // Bookkeeping of one Run, stack-allocated by the caller; workers and
  // Tickets reach it through the queue entries / ticket slots / a worker's
  // kept successor, which never outlive the Run (outstanding counts them).
  // Guarded by mutex_.
  struct RunState {
    const Dag* dag = nullptr;
    const NodeFn* fn = nullptr;
    std::vector<size_t> remaining_preds;
    size_t outstanding = 0;  // queued + kept + executing + deferred nodes
    bool cancelled = false;
    Status first_error;
    CondVar done_cv;  // signalled once, when outstanding reaches 0
  };

  // One ready node of one run.
  struct Work {
    RunState* state = nullptr;
    size_t node = 0;
  };

  void WorkerLoop();
  // Shared retirement bookkeeping (mutex_ held): records a failure (first
  // error wins, cancelling the run), releases a success's newly-ready
  // successors, and wakes the run's caller when its last outstanding node
  // retires. With `keep` non-null the first released successor is handed
  // back through it instead of being queued (WorkerLoop runs it next);
  // the rest are queued. Reached from WorkerLoop (synchronous returns) and
  // from Ticket::Complete (deferred nodes, keep == nullptr).
  void RetireLocked(RunState* state, size_t node, Status status, Work* keep)
      RR_REQUIRES(mutex_);

  Mutex mutex_;
  CondVar work_cv_;
  bool stopping_ RR_GUARDED_BY(mutex_) = false;
  std::deque<Work> queue_ RR_GUARDED_BY(mutex_);

  std::vector<std::thread> workers_;
};

}  // namespace rr::dag
