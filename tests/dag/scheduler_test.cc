// DagScheduler's wake-up rules: a worker keeps one newly-ready successor and
// runs it next in its own loop, queues the rest with one notify each, and a
// run's last retirement wakes only that run's caller. None of this may
// change behaviour: long chains complete without recursion, fan-outs keep
// their parallelism, failures still skip everything downstream, deferred
// nodes release successors through the queue, and concurrent runs each
// complete exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "dag/dag.h"
#include "dag/scheduler.h"

namespace rr::dag {
namespace {

Dag Build(DagBuilder& builder) {
  auto dag = builder.Build();
  EXPECT_TRUE(dag.ok()) << dag.status();
  return std::move(*dag);
}

TEST(DagSchedulerTest, TenThousandNodeChainRunsInOrderWithoutRecursion) {
  constexpr size_t kNodes = 10000;
  std::vector<std::string> names;
  for (size_t i = 0; i < kNodes; ++i) names.push_back("n" + std::to_string(i));
  DagBuilder builder("long-chain");
  builder.Chain(names);
  const Dag dag = Build(builder);

  DagScheduler scheduler(4);
  std::vector<size_t> order;
  std::set<std::thread::id> threads;
  uintptr_t lowest = UINTPTR_MAX;
  uintptr_t highest = 0;
  // Nodes of one chain never overlap, so plain containers suffice; the
  // scheduler's lock orders every hand-over between workers.
  const Status status = scheduler.Run(
      dag, [&](size_t node, const DagScheduler::DeferFn&) -> Status {
        const int marker = 0;
        const auto at = reinterpret_cast<uintptr_t>(&marker);
        lowest = std::min(lowest, at);
        highest = std::max(highest, at);
        order.push_back(node);
        threads.insert(std::this_thread::get_id());
        return Status::Ok();
      });
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_EQ(order.size(), kNodes);
  for (size_t i = 0; i < kNodes; ++i) {
    ASSERT_EQ(dag.node(order[i]).name, names[i]) << "at position " << i;
  }
  // The worker that ran the source keeps each lone successor in its loop.
  EXPECT_EQ(threads.size(), 1u);
  // Iteration, not recursion: every node ran at the same stack depth.
  EXPECT_LT(highest - lowest, 4096u);
}

TEST(DagSchedulerTest, FanOutOfSlowNodesStillRunsInParallel) {
  constexpr auto kNode = std::chrono::milliseconds(20);
  DagBuilder builder("fan-out");
  builder.AddNode("src").FanOut("src", {"r0", "r1", "r2", "r3"});
  const Dag dag = Build(builder);

  DagScheduler scheduler(4);
  std::atomic<int> ran{0};
  const Stopwatch timer;
  const Status status = scheduler.Run(
      dag, [&](size_t node, const DagScheduler::DeferFn&) -> Status {
        if (dag.node(node).name != "src") std::this_thread::sleep_for(kNode);
        ran.fetch_add(1);
        return Status::Ok();
      });
  const Nanos elapsed = timer.Elapsed();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(ran.load(), 5);
  EXPECT_LT(elapsed, 2 * kNode) << "the four 20 ms branches were serialized";
}

TEST(DagSchedulerTest, FailureMidChainSkipsEveryDownstreamNode) {
  DagBuilder builder("failing-chain");
  builder.Chain({"a", "b", "c", "d", "e"});
  const Dag dag = Build(builder);

  DagScheduler scheduler(4);
  std::mutex mutex;
  std::vector<std::string> ran;
  const Status status = scheduler.Run(
      dag, [&](size_t node, const DagScheduler::DeferFn&) -> Status {
        const std::string& name = dag.node(node).name;
        {
          std::lock_guard<std::mutex> lock(mutex);
          ran.push_back(name);
        }
        if (name == "c") return UnavailableError("c broke");
        return Status::Ok();
      });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status;
  EXPECT_NE(status.message().find("node c"), std::string::npos) << status;
  EXPECT_EQ(ran, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(DagSchedulerTest, DeferredNodeReleasesItsSuccessorThroughTheQueue) {
  DagBuilder builder("deferred");
  builder.Chain({"remote", "after"});
  const Dag dag = Build(builder);

  DagScheduler scheduler(2);
  std::mutex mutex;
  DagScheduler::Ticket ticket;
  std::thread::id worker_of_after;
  std::thread completer;
  const Status status = scheduler.Run(
      dag, [&](size_t node, const DagScheduler::DeferFn& defer) -> Status {
        std::lock_guard<std::mutex> lock(mutex);
        if (dag.node(node).name == "remote") {
          ticket = defer();
          // Completed from a foreign thread, as a reactor would.
          completer = std::thread([&ticket, &mutex] {
            std::lock_guard<std::mutex> inner(mutex);
            ticket.Complete(Status::Ok());
          });
          return Status::Ok();
        }
        worker_of_after = std::this_thread::get_id();
        return Status::Ok();
      });
  const std::thread::id completer_id = completer.get_id();
  completer.join();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(worker_of_after, std::thread::id());
  EXPECT_NE(worker_of_after, completer_id)
      << "the successor ran inline on the completing thread";
}

TEST(DagSchedulerTest, ConcurrentRunsEachCompleteExactlyOnce) {
  DagBuilder builder("diamond");
  builder.AddNode("a").FanOut("a", {"b", "c"}).FanIn({"b", "c"}, "d");
  const Dag dag = Build(builder);

  constexpr size_t kCallers = 8;
  constexpr size_t kRuns = 200;
  DagScheduler scheduler(4);
  std::atomic<size_t> returned{0};
  std::vector<std::thread> callers;
  for (size_t caller = 0; caller < kCallers; ++caller) {
    callers.emplace_back([&, caller] {
      for (size_t run = 0; run < kRuns; ++run) {
        std::vector<std::atomic<int>> hits(dag.size());
        std::mutex completer_mutex;  // orders the handle's store before Complete
        std::thread completer;
        const Status status = scheduler.Run(
            dag,
            [&](size_t node, const DagScheduler::DeferFn& defer) -> Status {
              hits[node].fetch_add(1);
              // Every other run defers "c" to a foreign thread, so runs mix
              // worker and foreign-thread completions.
              if ((caller + run) % 2 == 0 && dag.node(node).name == "c") {
                std::lock_guard<std::mutex> lock(completer_mutex);
                completer = std::thread(
                    [ticket = defer(), &completer_mutex]() mutable {
                      std::lock_guard<std::mutex> inner(completer_mutex);
                      ticket.Complete(Status::Ok());
                    });
              }
              return Status::Ok();
            });
        if (completer.joinable()) completer.join();
        EXPECT_TRUE(status.ok()) << status;
        for (size_t node = 0; node < dag.size(); ++node) {
          EXPECT_EQ(hits[node].load(), 1) << dag.node(node).name;
        }
        returned.fetch_add(1);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(returned.load(), kCallers * kRuns);
}

}  // namespace
}  // namespace rr::dag
