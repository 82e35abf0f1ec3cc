// The coordinator behind run_sweep() and run_supervised(): journal replay,
// the cache, cancel and fail-fast, the retry decision, JobResult accounting,
// progress, metrics and on_result, each exactly once. The runners differ only
// in who runs run_attempt(): a pool thread, or a worker process whose reply
// or death the supervisor turns into an AttemptOutcome. Internal to
// src/fleet/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "fleet/job.hpp"
#include "fleet/scheduler.hpp"

namespace mt4g::fleet {

/// How one attempt of a job ended.
struct AttemptOutcome {
  bool ok = false;
  core::TopologyReport report;  ///< valid when ok
  std::string error;            ///< when !ok
  bool timed_out = false;       ///< the attempt's deadline expired
  bool permanent = false;       ///< the job itself is malformed: no retry
  bool crashed = false;         ///< the worker process died mid-attempt
  double wall_seconds = 0.0;
};

/// One attempt under a fresh deadline: the fleet.job.attempt fault site, then
/// run_job(). TimeoutError is a timeout, std::invalid_argument and
/// std::out_of_range are permanent, any other exception is transient.
AttemptOutcome run_attempt(const DiscoveryJob& job, double timeout_seconds,
                           std::uint32_t attempt);

/// One sweep's results and policy. Calls for different jobs may come from
/// different threads at once; calls for one job must not.
class Coordinator {
 public:
  Coordinator(const std::vector<DiscoveryJob>& jobs,
              const SchedulerOptions& options,
              std::vector<JobResult> prefilled);
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Settles a journal replay, a job of a stopping run (skipped) or a cache
  /// hit. False: the job needs an attempt.
  bool settle_early(std::size_t index);
  /// Cancelled, or fail-fast saw a job fail: no further attempt may start.
  bool stopping() const;
  void skip(std::size_t index);
  /// Counts the start of the job's next attempt; returns its number.
  std::uint32_t start_attempt(std::size_t index);
  /// Records how the current attempt ended: the backoff before the retry, or
  /// nullopt once the job is settled.
  std::optional<std::chrono::milliseconds> end_attempt(std::size_t index,
                                                       AttemptOutcome outcome);
  bool all_settled() const;
  std::vector<JobResult> take_results() { return std::move(results_); }

 private:
  void count(std::atomic<std::size_t> FleetProgress::*counter,
             const char* metric) const;
  void settle(std::size_t index);

  const SchedulerOptions& options_;
  const std::uint32_t max_attempts_;
  std::vector<JobResult> results_;
  std::atomic<bool> failed_fast_{false};
  mutable std::mutex mutex_;  ///< guards settled_, journal and on_result
  std::size_t settled_ = 0;
};

}  // namespace mt4g::fleet
