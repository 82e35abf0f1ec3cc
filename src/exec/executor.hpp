// Shared work executor — the one thread pool of the process.
//
// Every parallelism seam of the tool runs through this executor: the fleet
// scheduler fans whole discovery jobs over it, the stage graph fans the
// benchmarks of one discovery over it, and the chase-plan engine fans
// individual p-chase measurements over it (runtime::run_chase_batch).
// Hoisting the pool out of src/fleet/ lets the layers nest without
// spawning threads inside threads: parallel_for() always executes on the
// calling thread too, so a fleet worker that reaches a nested sweep
// parallel_for makes progress even when every pool thread is busy with outer
// jobs — nesting can never deadlock, only degrade to serial.
//
// Threads that block inside a task (a stage-graph worker with no ready
// stage) wait through help_until() instead of parking: while their
// predicate is false they join queued batches exactly like a pool thread
// does, so no thread of the pool idles while a queued batch still has
// claimable work it may join.
//
// Determinism contract: parallel_for() itself guarantees nothing about
// execution order — tasks must write results into per-index slots and must
// not depend on shared mutable state, which is exactly how every caller
// uses it (fleet jobs own their Gpu; stages own a forked substrate; chases
// own a per-slot Gpu replica that is reset before every chase).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace mt4g::exec {

/// One unit of a parallel_for: @p index is the work item, @p slot identifies
/// the participant executing it (0 = the calling thread, then one id per
/// participant that joined: a pool thread or a helping waiter). Slots let
/// callers keep per-participant scratch state (e.g. a Gpu replica) without
/// locking: slot values stay below the max_workers passed to parallel_for,
/// and no two tasks run concurrently on the same slot.
using IndexedTask = std::function<void(std::size_t index, std::uint32_t slot)>;

/// Always-on lightweight instrumentation of one Executor: a handful of
/// relaxed atomic counters plus two steady-clock reads per task, kept cheap
/// enough to never gate behind a flag. The obs metrics registry (src/obs/)
/// additionally receives live `exec.queue_wait_ns` observations when it is
/// enabled; this struct is the raw substrate tests and the CLI read.
struct ExecutorStats {
  std::uint64_t batches = 0;         ///< parallel_for calls with work
  std::uint64_t nested_batches = 0;  ///< submitted from inside another task
  std::uint64_t tasks = 0;           ///< tasks executed (all participants)
  std::uint64_t tasks_failed = 0;    ///< tasks that ended in an exception
  std::uint64_t caller_tasks = 0;    ///< tasks run by calling threads (slot 0)
  /// Tasks run by participants that joined a queued batch: pool threads and
  /// helping waiters (help_until).
  std::uint64_t pool_tasks = 0;
  std::uint64_t max_queue_depth = 0;  ///< deepest claimable-batch queue seen
  std::uint64_t caller_busy_ns = 0;  ///< wall time calling threads spent in tasks
  std::uint64_t pool_busy_ns = 0;    ///< wall time joiners spent in tasks
  /// Enqueue-to-join latency summed over every participant that joined a
  /// batch: how long submitted work waited before a worker picked it up.
  std::uint64_t queue_wait_ns = 0;
  /// pool_busy_ns / (pool threads x pool lifetime); 0 for a pool-less
  /// executor. A lifetime average, not a window — interpret trends, not
  /// instants. Helping waiters count as joiners, so a non-pool thread that
  /// helps adds to the numerator.
  double worker_busy_fraction = 0.0;

  /// Share of task wall time executed by calling threads — > 0 proves
  /// caller participation actually happens (the nest-safety property).
  double caller_busy_fraction() const {
    const std::uint64_t total = caller_busy_ns + pool_busy_ns;
    return total > 0 ? static_cast<double>(caller_busy_ns) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

class Executor {
 public:
  /// @param pool_threads worker threads to spawn in addition to the callers
  ///        that participate in their own parallel_for calls; 0 is valid
  ///        (every parallel_for then runs inline on the caller).
  explicit Executor(std::uint32_t pool_threads);
  virtual ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  std::uint32_t pool_threads() const;

  /// Runs task(0..count-1) and blocks until all of them finished. At most
  /// @p max_workers participants execute concurrently, the caller included
  /// (0 = caller + whole pool); max_workers <= 1 runs inline on the caller
  /// in index order — the serial reference mode. Tasks that throw do not
  /// abort the batch: every index still runs, and the exception of the
  /// lowest failing index is rethrown afterwards (lowest, not first, so the
  /// error a caller observes is independent of scheduling). Virtual so a
  /// test can fix an order on a batch's tasks by wrapping them.
  virtual void parallel_for(std::size_t count, std::uint32_t max_workers,
                            const IndexedTask& task);

  /// Blocks until @p done returns true, running claimable tasks of queued
  /// batches meanwhile: the waiter joins a batch under the same joiner/slot
  /// rule pool threads follow, drains it, and re-checks @p done between
  /// batches. It only joins batches submitted at its own task-nesting depth
  /// or deeper, never enclosing work (a fleet job, another graph's stage
  /// workers) that could itself be what it waits for. @p done runs without
  /// any executor lock held; whoever makes it true calls wake_helpers()
  /// afterwards. On a pool-less executor batches never queue, so the waiter
  /// only waits.
  void help_until(const std::function<bool()>& done);

  /// Wakes every help_until() waiter to re-check its predicate.
  void wake_helpers();

  /// Monotonic counters since construction (see ExecutorStats). Safe to call
  /// concurrently with running batches; values are a relaxed snapshot.
  ExecutorStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The process-wide executor (hardware_concurrency - 1 pool threads, so a
/// saturated parallel_for uses every core once, counting the caller).
/// Created on first use; safe to call from any thread.
Executor& shared_executor();

}  // namespace mt4g::exec
