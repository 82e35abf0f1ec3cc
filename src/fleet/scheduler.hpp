// Fleet sweeps: job results, the retry policy, and the in-process runner.
//
// run_sweep() and run_supervised() (supervise.hpp) share one coordinator, so
// the policy below holds in both; they differ only in who runs an attempt.
// Here a thread of the process-wide executor (exec::shared_executor) runs it
// and sleeps through the backoff before a retry; jobs whose DiscoverOptions
// request sweep_threads > 1 nest on the same executor. Each job writes into
// its own result slot, so results come back in job order, identical for any
// worker count.
//
// Failure model (see README "Failure model"):
//  * A job that throws is captured as a failed JobResult. The sweep runs to
//    completion unless cancelled or fail_fast trips; then no further attempt
//    starts and the jobs left are recorded as skipped, never dropped.
//  * Transient errors are retried up to RetryPolicy::max_attempts with a
//    deterministic exponential backoff. std::invalid_argument and
//    std::out_of_range are permanent (a wrong model name never heals).
//  * RetryPolicy::timeout_seconds arms a per-attempt deadline, checked
//    before every stage of the discovery graph; expiry is a retryable
//    TimeoutError (JobResult::timed_out, FleetProgress::timeouts).
//  * Every attempt runs a fresh Gpu from the job spec, so a retried job's
//    report is byte-identical to a clean run's (tests/test_fleet_retry.cpp).
//  * A failing journal never stops a sweep; RunJournal::error() says why.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "fleet/cache.hpp"
#include "fleet/job.hpp"

namespace mt4g::fleet {

class RunJournal;

/// Live progress counters of a running sweep. All atomics: safe to poll from
/// a heartbeat thread while workers update them (mt4g_cli fleet --progress).
struct FleetProgress {
  std::atomic<std::size_t> total{0};       ///< sweep size, set once at start
  std::atomic<std::size_t> done{0};        ///< finished jobs (ok or failed)
  std::atomic<std::size_t> cache_hits{0};  ///< jobs served by the ResultCache
  std::atomic<std::size_t> failed{0};      ///< jobs whose final attempt failed
  std::atomic<std::size_t> retries{0};     ///< extra attempts after failures
  std::atomic<std::size_t> timeouts{0};    ///< attempts killed by the deadline
  std::atomic<std::size_t> skipped{0};     ///< jobs skipped by a stop
  /// Worker-process deaths absorbed by the supervisor (run_supervised only:
  /// in-process sweeps cannot survive a crash to count it).
  std::atomic<std::size_t> worker_crashes{0};
};

/// Outcome of one job within a sweep.
struct JobResult {
  DiscoveryJob job;
  bool ok = false;
  bool from_cache = false;      ///< served by the ResultCache, not discovery
  std::string error;            ///< last attempt's exception message when !ok
  core::TopologyReport report;  ///< valid only when ok
  double wall_seconds = 0.0;    ///< host time this job's attempts took
  std::uint32_t attempts = 0;   ///< attempts actually made
  bool retried = false;         ///< more than one attempt was made
  bool timed_out = false;       ///< final attempt hit the wall-clock deadline
  bool skipped = false;         ///< the run stopped before its next attempt
  /// Worker processes that died (crash, kill, missed heartbeat, garbage on
  /// the pipe) while running this job. Only run_supervised() can set it —
  /// each crash consumes one attempt from the same retry budget exceptions
  /// use, so a crash-looping job fails with "worker crashed" after
  /// RetryPolicy::max_attempts.
  std::uint32_t worker_crashes = 0;
  bool crashed = false;         ///< final attempt died with the worker
  /// Restored from a --resume run journal, not computed this run. Excluded
  /// from the serialised summary counters (unlike from_cache) so a resumed
  /// aggregate is byte-identical to the uninterrupted run's.
  bool from_journal = false;
};

/// Bounded-retry policy applied per job. The defaults preserve the original
/// fail-fast-per-job semantics: one attempt, no deadline, no backoff.
struct RetryPolicy {
  /// Total attempts per job (first try included); values < 1 read as 1.
  std::uint32_t max_attempts = 1;
  /// Per-attempt wall-clock deadline in seconds; <= 0 = unlimited. Checked
  /// cooperatively before each stage, so the overshoot is bounded by the
  /// longest single stage.
  double timeout_seconds = 0.0;
  /// Deterministic exponential backoff between attempts:
  /// min(backoff_cap_ms, backoff_base_ms << (attempt - 1)); 0 = immediate.
  std::uint32_t backoff_base_ms = 0;
  std::uint32_t backoff_cap_ms = 1000;
};

struct SchedulerOptions {
  /// Concurrent jobs of run_sweep() (the calling thread included);
  /// 0 = std::thread::hardware_concurrency() (min 1), 1 = serial in order.
  std::uint32_t workers = 0;
  /// Optional shared result cache probed before and filled after each run.
  ResultCache* cache = nullptr;
  /// Optional crash-safe progress log: every settled job, except skipped and
  /// from_journal ones, is appended + fsync'd before on_result sees it.
  RunJournal* journal = nullptr;
  /// Progress callback, invoked once per finished job from a pool thread or
  /// the supervising thread, never concurrently. @p done counts finished
  /// jobs including this one, @p total is the sweep size.
  std::function<void(const JobResult& result, std::size_t done,
                     std::size_t total)>
      on_result;
  /// Optional live counters, updated lock-free as jobs finish. The caller
  /// owns the struct and may poll it from another thread (progress display).
  FleetProgress* progress = nullptr;
  /// Retry / timeout / backoff applied to every job.
  RetryPolicy retry;
  /// Start no attempt after the first definitive failure; jobs left finish
  /// as JobResult::skipped. Which jobs were already in flight when the
  /// failure landed depends on scheduling — fail-fast trades the
  /// run-to-completion guarantee for latency, and is therefore the only
  /// scheduler mode whose result vector is not schedule-independent.
  bool fail_fast = false;
  /// Cooperative cancellation (SIGINT/SIGTERM): when the pointee turns true
  /// no further attempt starts and the jobs left are recorded as skipped,
  /// like fail_fast but caller-triggered. nullptr = never cancelled.
  const std::atomic<bool>* cancel = nullptr;
};

/// Runs every job and returns results in job order. @p prefilled (from
/// apply_journal) may carry final results flagged from_journal: reported,
/// not re-run. Never throws for per-job failures; see JobResult::ok / error.
std::vector<JobResult> run_sweep(const std::vector<DiscoveryJob>& jobs,
                                 const SchedulerOptions& options = {},
                                 std::vector<JobResult> prefilled = {});

}  // namespace mt4g::fleet
