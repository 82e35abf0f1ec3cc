#include "exec/executor.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace mt4g::exec {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Task-nesting depth of the task running on this thread: 0 outside any
/// task, and a task of a batch submitted at depth d runs at d + 1 on
/// whichever thread executes it. A parallel_for issued at depth > 0 is a
/// nested submission, and a help_until() waiter only joins batches
/// submitted at its own depth or deeper.
thread_local std::uint32_t t_depth = 0;

/// Relaxed monotonic counters behind Executor::stats(); one instance per
/// Executor, shared with every Batch it runs.
struct Counters {
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> nested_batches{0};
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::uint64_t> tasks_failed{0};
  std::atomic<std::uint64_t> caller_tasks{0};
  std::atomic<std::uint64_t> pool_tasks{0};
  std::atomic<std::uint64_t> max_queue_depth{0};
  std::atomic<std::uint64_t> caller_busy_ns{0};
  std::atomic<std::uint64_t> pool_busy_ns{0};
  std::atomic<std::uint64_t> queue_wait_ns{0};

  void note_queue_depth(std::uint64_t depth) {
    std::uint64_t seen = max_queue_depth.load(std::memory_order_relaxed);
    while (depth > seen && !max_queue_depth.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }
};

struct Batch {
  std::size_t count = 0;
  const IndexedTask* task = nullptr;
  std::uint32_t max_joiners = 0;  ///< joiners allowed (caller excluded)
  std::uint32_t depth = 0;        ///< submitter's t_depth
  Counters* counters = nullptr;
  std::uint64_t enqueue_ns = 0;  ///< submission time (pooled batches only)

  std::atomic<std::size_t> next{0};   ///< index claim cursor
  std::atomic<std::size_t> done{0};   ///< finished tasks
  std::uint32_t joiners = 0;          ///< participants that joined (queue lock)
  std::atomic<std::uint32_t> slots{1};  ///< slot 0 is reserved for the caller

  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();

  std::mutex done_mutex;
  std::condition_variable done_cv;

  bool exhausted() const {
    return next.load(std::memory_order_relaxed) >= count;
  }
};

/// Claims and executes indices until the batch is drained. Returns after the
/// participant's last task; the batch may still have tasks in flight on
/// other participants.
void drain(Batch& batch, std::uint32_t slot) {
  while (true) {
    const std::size_t index =
        batch.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= batch.count) return;
    const std::uint64_t begin_ns = now_ns();
    const std::uint32_t outer_depth = t_depth;
    t_depth = batch.depth + 1;
    try {
      (*batch.task)(index, slot);
    } catch (...) {
      batch.counters->tasks_failed.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(batch.error_mutex);
      if (index < batch.error_index) {
        batch.error_index = index;
        batch.error = std::current_exception();
      }
    }
    t_depth = outer_depth;
    const std::uint64_t busy_ns = now_ns() - begin_ns;
    Counters& counters = *batch.counters;
    counters.tasks.fetch_add(1, std::memory_order_relaxed);
    if (slot == 0) {
      counters.caller_tasks.fetch_add(1, std::memory_order_relaxed);
      counters.caller_busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
    } else {
      counters.pool_tasks.fetch_add(1, std::memory_order_relaxed);
      counters.pool_busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
    }
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch.count) {
      std::lock_guard<std::mutex> lock(batch.done_mutex);
      batch.done_cv.notify_all();
    }
  }
}

}  // namespace

struct Executor::Impl {
  std::mutex queue_mutex;
  /// Wakes pool threads and helping waiters alike: on a batch push and on
  /// wake_helpers() (which shutdown uses too).
  std::condition_variable queue_cv;
  std::deque<std::shared_ptr<Batch>> queue;  // batches with claimable work
  /// Bumped by wake_helpers(), so a waiter that evaluated its predicate just
  /// before the bump re-checks it instead of sleeping through the wake.
  std::uint64_t wake_generation = 0;
  std::atomic<bool> stop{false};  ///< pool threads help until this is set
  std::vector<std::thread> threads;
  Counters counters;
  std::uint64_t start_ns = now_ns();

  /// Joins the first queued batch that still admits a joiner and was
  /// submitted at task-nesting depth @p min_depth or deeper, dropping
  /// exhausted batches on the way. Requires queue_mutex.
  std::shared_ptr<Batch> claim(std::uint32_t min_depth) {
    for (auto it = queue.begin(); it != queue.end();) {
      Batch& batch = **it;
      if (batch.exhausted()) {
        it = queue.erase(it);
        continue;
      }
      if (batch.joiners < batch.max_joiners && batch.depth >= min_depth) {
        ++batch.joiners;
        return *it;
      }
      ++it;
    }
    return nullptr;
  }

  /// Runs a claimed batch on the next free slot until it is drained.
  void join(Batch& batch) {
    // Enqueue-to-join latency: how long the submitted batch waited for this
    // participant. Observed live into the metrics registry (when enabled)
    // so queue pressure is visible per run, not just cumulatively.
    const std::uint64_t wait_ns = now_ns() - batch.enqueue_ns;
    counters.queue_wait_ns.fetch_add(wait_ns, std::memory_order_relaxed);
    obs::Metrics::instance().observe("exec.queue_wait_ns",
                                     static_cast<double>(wait_ns));
    drain(batch, batch.slots.fetch_add(1, std::memory_order_relaxed));
  }

  /// Executor::help_until(); a pool thread runs it until shutdown, at
  /// depth 0, so it may join every batch.
  void help_until(const std::function<bool()>& done) {
    std::unique_lock<std::mutex> lock(queue_mutex);
    while (true) {
      const std::uint64_t seen = wake_generation;
      lock.unlock();
      if (done()) return;
      lock.lock();
      if (const std::shared_ptr<Batch> batch = claim(t_depth)) {
        lock.unlock();
        join(*batch);
        lock.lock();
      } else if (wake_generation == seen) {
        // No wake since @p done was evaluated, and a batch push needs
        // queue_mutex, which this thread holds until the wait releases it.
        queue_cv.wait(lock);
      }
    }
  }
};

Executor::Executor(std::uint32_t pool_threads) : impl_(new Impl) {
  impl_->threads.reserve(pool_threads);
  for (std::uint32_t i = 0; i < pool_threads; ++i) {
    impl_->threads.emplace_back(
        [this] { impl_->help_until([this] { return impl_->stop.load(); }); });
  }
}

Executor::~Executor() {
  impl_->stop = true;
  wake_helpers();
  for (auto& thread : impl_->threads) thread.join();
}

std::uint32_t Executor::pool_threads() const {
  return static_cast<std::uint32_t>(impl_->threads.size());
}

ExecutorStats Executor::stats() const {
  const Counters& c = impl_->counters;
  ExecutorStats stats;
  stats.batches = c.batches.load(std::memory_order_relaxed);
  stats.nested_batches = c.nested_batches.load(std::memory_order_relaxed);
  stats.tasks = c.tasks.load(std::memory_order_relaxed);
  stats.tasks_failed = c.tasks_failed.load(std::memory_order_relaxed);
  stats.caller_tasks = c.caller_tasks.load(std::memory_order_relaxed);
  stats.pool_tasks = c.pool_tasks.load(std::memory_order_relaxed);
  stats.max_queue_depth = c.max_queue_depth.load(std::memory_order_relaxed);
  stats.caller_busy_ns = c.caller_busy_ns.load(std::memory_order_relaxed);
  stats.pool_busy_ns = c.pool_busy_ns.load(std::memory_order_relaxed);
  stats.queue_wait_ns = c.queue_wait_ns.load(std::memory_order_relaxed);
  const std::uint64_t alive_ns = now_ns() - impl_->start_ns;
  const std::uint64_t capacity_ns =
      static_cast<std::uint64_t>(impl_->threads.size()) * alive_ns;
  stats.worker_busy_fraction =
      capacity_ns > 0 ? static_cast<double>(stats.pool_busy_ns) /
                            static_cast<double>(capacity_ns)
                      : 0.0;
  return stats;
}

void Executor::parallel_for(std::size_t count, std::uint32_t max_workers,
                            const IndexedTask& task) {
  if (count == 0) return;
  if (max_workers == 0) max_workers = pool_threads() + 1;

  impl_->counters.batches.fetch_add(1, std::memory_order_relaxed);
  if (t_depth > 0) {
    impl_->counters.nested_batches.fetch_add(1, std::memory_order_relaxed);
  }

  const auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->task = &task;
  batch->depth = t_depth;
  batch->counters = &impl_->counters;
  // The caller is always a participant; only the surplus comes from the
  // pool, and never more joiners than there are work items beyond the
  // caller's first claim.
  const std::size_t surplus =
      std::min<std::size_t>(max_workers > 0 ? max_workers - 1 : 0,
                            count > 0 ? count - 1 : 0);
  batch->max_joiners = static_cast<std::uint32_t>(surplus);

  if (batch->max_joiners == 0 || impl_->threads.empty()) {
    // Serial mode: inline on the caller, strict index order.
    drain(*batch, 0);
  } else {
    batch->enqueue_ns = now_ns();
    {
      std::lock_guard<std::mutex> lock(impl_->queue_mutex);
      impl_->queue.push_back(batch);
      impl_->counters.note_queue_depth(impl_->queue.size());
    }
    impl_->queue_cv.notify_all();
    drain(*batch, 0);
    {
      std::unique_lock<std::mutex> lock(batch->done_mutex);
      batch->done_cv.wait(lock, [&] {
        return batch->done.load(std::memory_order_acquire) == batch->count;
      });
    }
    {
      std::lock_guard<std::mutex> lock(impl_->queue_mutex);
      for (auto it = impl_->queue.begin(); it != impl_->queue.end(); ++it) {
        if (it->get() == batch.get()) {
          impl_->queue.erase(it);
          break;
        }
      }
    }
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

void Executor::help_until(const std::function<bool()>& done) {
  impl_->help_until(done);
}

void Executor::wake_helpers() {
  {
    std::lock_guard<std::mutex> lock(impl_->queue_mutex);
    ++impl_->wake_generation;
  }
  impl_->queue_cv.notify_all();
}

Executor& shared_executor() {
  static Executor executor([] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 0;
  }());
  return executor;
}

}  // namespace mt4g::exec
