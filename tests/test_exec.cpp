// Shared-executor tests: completeness, serial ordering, slot disjointness,
// exception policy, nesting and helping waits — the properties the sweep
// engine, the stage graph and the fleet scheduler build their determinism
// on.
#include "exec/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace mt4g::exec {
namespace {

TEST(Executor, RunsEveryIndexExactlyOnce) {
  Executor executor(3);
  std::vector<std::atomic<int>> hits(100);
  executor.parallel_for(hits.size(), 0, [&](std::size_t i, std::uint32_t) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, SerialModeRunsInIndexOrderOnCaller) {
  Executor executor(3);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  executor.parallel_for(10, 1, [&](std::size_t i, std::uint32_t slot) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(slot, 0u);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, SlotsStayBelowMaxWorkersAndAreExclusive) {
  Executor executor(4);
  constexpr std::uint32_t kMaxWorkers = 3;
  std::vector<std::atomic<int>> in_flight(kMaxWorkers);
  std::atomic<bool> overlap{false};
  std::atomic<std::uint32_t> max_slot{0};
  executor.parallel_for(200, kMaxWorkers, [&](std::size_t, std::uint32_t slot) {
    std::uint32_t seen = max_slot.load();
    while (slot > seen && !max_slot.compare_exchange_weak(seen, slot)) {
    }
    ASSERT_LT(slot, kMaxWorkers);
    if (in_flight[slot].fetch_add(1) != 0) overlap = true;
    in_flight[slot].fetch_sub(1);
  });
  EXPECT_FALSE(overlap) << "two tasks ran concurrently on one slot";
  EXPECT_LT(max_slot.load(), kMaxWorkers);
}

TEST(Executor, ZeroPoolThreadsRunsInline) {
  Executor executor(0);
  std::vector<std::size_t> order;
  executor.parallel_for(5, 0, [&](std::size_t i, std::uint32_t slot) {
    EXPECT_EQ(slot, 0u);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Executor, RethrowsLowestIndexExceptionAfterCompletingBatch) {
  Executor executor(3);
  std::vector<std::atomic<int>> hits(50);
  try {
    executor.parallel_for(hits.size(), 0, [&](std::size_t i, std::uint32_t) {
      hits[i].fetch_add(1);
      if (i == 7 || i == 31) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 7");  // lowest index, not first observed
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);  // batch still completed
}

TEST(Executor, NestedParallelForMakesProgress) {
  Executor executor(2);
  std::atomic<int> inner_total{0};
  executor.parallel_for(4, 0, [&](std::size_t, std::uint32_t) {
    // Nested fan-out on the same executor: the caller participates, so this
    // completes even with every pool thread busy in the outer batch.
    executor.parallel_for(8, 0, [&](std::size_t, std::uint32_t) {
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ExecutorStats, CountsTasksBatchesAndQueueDepth) {
  Executor executor(2);
  const ExecutorStats before = executor.stats();
  executor.parallel_for(10, 0, [](std::size_t, std::uint32_t) {});
  executor.parallel_for(5, 1, [](std::size_t, std::uint32_t) {});  // serial
  const ExecutorStats after = executor.stats();
  EXPECT_EQ(after.batches - before.batches, 2u);
  EXPECT_EQ(after.tasks - before.tasks, 15u);
  EXPECT_EQ(after.caller_tasks + after.pool_tasks, after.tasks);
  // The pooled batch was pushed onto the claimable queue at least once.
  EXPECT_GE(after.max_queue_depth, 1u);
}

TEST(ExecutorStats, CallerParticipationIsExercised) {
  // A latch with one arrival per participant blocks every task until ALL
  // participants (2 pool threads + the caller) have claimed one — so the
  // caller provably executes a task; no race can hand all three to the pool.
  Executor executor(2);
  const ExecutorStats before = executor.stats();
  std::latch arrived(3);
  executor.parallel_for(3, 3, [&](std::size_t, std::uint32_t) {
    arrived.arrive_and_wait();
  });
  const ExecutorStats after = executor.stats();
  EXPECT_EQ(after.tasks - before.tasks, 3u);
  EXPECT_GE(after.caller_tasks - before.caller_tasks, 1u);
  EXPECT_GT(after.caller_busy_ns, before.caller_busy_ns);
  EXPECT_GT(after.caller_busy_fraction(), 0.0)
      << "the calling thread must participate in its own batches";
  EXPECT_GT(after.pool_tasks - before.pool_tasks, 0u);
  EXPECT_GT(after.worker_busy_fraction, 0.0);
  EXPECT_GT(after.queue_wait_ns, before.queue_wait_ns);
}

TEST(ExecutorStats, NestedBatchesAreCounted) {
  Executor executor(2);
  const ExecutorStats before = executor.stats();
  executor.parallel_for(2, 0, [&](std::size_t, std::uint32_t) {
    executor.parallel_for(4, 0, [](std::size_t, std::uint32_t) {});
  });
  const ExecutorStats after = executor.stats();
  EXPECT_EQ(after.batches - before.batches, 3u);
  EXPECT_EQ(after.nested_batches - before.nested_batches, 2u);
  EXPECT_EQ(after.tasks - before.tasks, 10u);
}

// --- Helping waits. -----------------------------------------------------------

/// Holds the calling task until @p n tasks have arrived (or 10 s passed), so
/// a batch of n such tasks needs n distinct participants to finish promptly.
void rendezvous(std::atomic<int>& arrived, int n) {
  arrived.fetch_add(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (arrived.load() < n && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(ExecutorHelping, WaiterRunsTasksOfAnotherThreadsBatch) {
  // Three rendezvous tasks, three participants allowed: the submitter, the
  // one pool thread and this waiter. Each task holds its participant, so
  // the waiter must run one of them for the batch to finish promptly.
  Executor executor(1);
  const auto waiter = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::atomic<bool> batch_done{false};
  std::vector<std::thread::id> ran_on(3);
  std::thread submitter([&] {
    executor.parallel_for(3, 3, [&](std::size_t i, std::uint32_t) {
      ran_on[i] = std::this_thread::get_id();
      rendezvous(arrived, 3);
    });
    batch_done = true;
    executor.wake_helpers();
  });
  executor.help_until([&] { return batch_done.load(); });
  EXPECT_TRUE(batch_done.load()) << "returned before the predicate held";
  submitter.join();
  EXPECT_EQ(std::count(ran_on.begin(), ran_on.end(), waiter), 1);
}

TEST(ExecutorHelping, WakeWithNothingQueuedReleasesTheWaiter) {
  Executor executor(1);
  std::atomic<bool> flag{false};
  auto waiting = std::async(std::launch::async, [&] {
    executor.help_until([&] { return flag.load(); });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let it block
  flag = true;
  executor.wake_helpers();
  const bool woke =
      waiting.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(woke) << "wake_helpers() did not wake the waiter";
  // A batch push wakes waiters too, so a failed wake cannot hang the test.
  if (!woke) executor.parallel_for(2, 2, [](std::size_t, std::uint32_t) {});
}

TEST(ExecutorHelping, WaiterJoinsOnlyBatchesAtItsOwnDepthOrDeeper) {
  // The caller (slot 0) and the pool thread (slot 1) each hold one task of
  // an outer batch; the caller then waits inside its task, at depth 1. A
  // batch submitted from top level (depth 0) is enclosing work it must
  // leave alone; a batch the pool thread submits from its task (depth 1)
  // needs two participants, and the waiter is the only free thread.
  Executor executor(1);
  const auto waiter = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::atomic<bool> done{false};
  std::atomic<int> top_level_on_waiter{0};
  std::atomic<int> nested_on_waiter{0};
  executor.parallel_for(2, 2, [&](std::size_t, std::uint32_t slot) {
    rendezvous(arrived, 2);
    if (slot == 0) {
      executor.help_until([&] { return done.load(); });
      return;
    }
    std::thread top_level([&] {
      executor.parallel_for(4, 4, [&](std::size_t, std::uint32_t) {
        if (std::this_thread::get_id() == waiter) top_level_on_waiter += 1;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      });
    });
    top_level.join();
    std::atomic<int> nested_arrived{0};
    executor.parallel_for(2, 2, [&](std::size_t, std::uint32_t) {
      if (std::this_thread::get_id() == waiter) nested_on_waiter += 1;
      rendezvous(nested_arrived, 2);
    });
    done = true;
    executor.wake_helpers();
  });
  EXPECT_EQ(top_level_on_waiter.load(), 0) << "joined an enclosing batch";
  EXPECT_EQ(nested_on_waiter.load(), 1) << "left a nested batch unhelped";
}

thread_local bool t_helper = false;  ///< set on help_until() test threads

TEST(ExecutorHelping, SlotsStayBelowMaxWorkersAndExclusiveWhileHelpersJoin) {
  Executor executor(2);
  constexpr std::uint32_t kMaxWorkers = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> helpers;
  for (int h = 0; h < 3; ++h) {
    helpers.emplace_back([&] {
      t_helper = true;
      executor.help_until([&] { return stop.load(); });
    });
  }
  std::vector<std::atomic<int>> in_flight(kMaxWorkers);
  std::atomic<bool> overlap{false};
  std::atomic<bool> out_of_range{false};
  std::atomic<int> helper_tasks{0};
  const auto check_slot = [&](std::uint32_t slot) {
    if (slot >= kMaxWorkers) {
      out_of_range = true;
      return false;
    }
    if (in_flight[slot].fetch_add(1) != 0) overlap = true;
    if (t_helper) helper_tasks.fetch_add(1);
    return true;
  };
  // A rendezvous round needs all four participants; two pool threads at
  // most, so at least one helper joins. Then plain rounds under contention.
  std::atomic<int> arrived{0};
  executor.parallel_for(kMaxWorkers, kMaxWorkers,
                        [&](std::size_t, std::uint32_t slot) {
                          const bool counted = check_slot(slot);
                          rendezvous(arrived, kMaxWorkers);
                          if (counted) in_flight[slot].fetch_sub(1);
                        });
  for (int round = 0; round < 20; ++round) {
    executor.parallel_for(64, kMaxWorkers, [&](std::size_t, std::uint32_t slot) {
      if (!check_slot(slot)) return;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      in_flight[slot].fetch_sub(1);
    });
  }
  stop = true;
  executor.wake_helpers();
  for (auto& helper : helpers) helper.join();
  EXPECT_FALSE(out_of_range) << "a slot reached max_workers";
  EXPECT_FALSE(overlap) << "two tasks ran concurrently on one slot";
  EXPECT_GE(helper_tasks.load(), 1) << "no helper joined a batch";
}

TEST(ExecutorHelping, ExceptionOnAHelperSurfacesAsLowestIndexError) {
  // As above, the waiter runs exactly one of three rendezvous tasks. Its
  // task throws, and so does index 2 wherever it runs: the batch rethrows
  // the lower of the two indices.
  Executor executor(1);
  const auto waiter = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::atomic<bool> batch_done{false};
  std::atomic<std::size_t> waiter_index{SIZE_MAX};
  const ExecutorStats before = executor.stats();
  std::string error;
  std::thread submitter([&] {
    try {
      executor.parallel_for(3, 3, [&](std::size_t i, std::uint32_t) {
        rendezvous(arrived, 3);
        const bool on_waiter = std::this_thread::get_id() == waiter;
        if (on_waiter) waiter_index = i;
        if (on_waiter || i == 2) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
    batch_done = true;
    executor.wake_helpers();
  });
  executor.help_until([&] { return batch_done.load(); });
  submitter.join();
  ASSERT_NE(waiter_index.load(), SIZE_MAX) << "the waiter never joined";
  EXPECT_EQ(error,
            "boom " + std::to_string(std::min<std::size_t>(waiter_index, 2)));
  EXPECT_EQ(executor.stats().tasks_failed - before.tasks_failed,
            waiter_index == 2 ? 1u : 2u);
}

TEST(Executor, SharedExecutorIsAProcessSingleton) {
  EXPECT_EQ(&shared_executor(), &shared_executor());
  std::atomic<int> count{0};
  shared_executor().parallel_for(16, 0, [&](std::size_t, std::uint32_t) {
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 16);
}

}  // namespace
}  // namespace mt4g::exec
