#include "fleet/coordinator.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/fault.hpp"
#include "core/cancel.hpp"
#include "fleet/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mt4g::fleet {
namespace {

/// Deterministic backoff before attempt @p attempt (2-based):
/// min(cap, base << (attempt - 2)) milliseconds; base 0 = immediate.
std::chrono::milliseconds backoff_ms(const RetryPolicy& retry,
                                     std::uint32_t attempt) {
  if (retry.backoff_base_ms == 0 || attempt < 2) {
    return std::chrono::milliseconds(0);
  }
  const std::uint32_t shift = std::min<std::uint32_t>(attempt - 2, 31);
  const std::uint64_t wait =
      static_cast<std::uint64_t>(retry.backoff_base_ms) << shift;
  return std::chrono::milliseconds(
      std::min<std::uint64_t>(wait, retry.backoff_cap_ms));
}

}  // namespace

AttemptOutcome run_attempt(const DiscoveryJob& job, double timeout_seconds,
                           std::uint32_t attempt) {
  const auto start = std::chrono::steady_clock::now();
  AttemptOutcome outcome;
  try {
    // Span names allocate; skip the key() format entirely when not tracing.
    const obs::SpanGuard span(
        "fleet.attempt:",
        obs::tracing_enabled() ? job.key() + "#" + std::to_string(attempt)
                               : std::string());
    if (fault::faults_enabled()) {
      fault::Injector::instance().at(fault::kSiteJobAttempt, job.key());
    }
    // Each attempt runs the job value untouched except for a fresh deadline —
    // run_job builds a new Gpu from the spec, so attempt N reproduces
    // attempt 1 exactly and retries stay byte-identical.
    DiscoveryJob attempt_job = job;
    attempt_job.options.deadline = core::Deadline::after(timeout_seconds);
    outcome.report = run_job(attempt_job);
    outcome.ok = true;
  } catch (const core::TimeoutError& e) {
    outcome.error = e.what();
    outcome.timed_out = true;
  } catch (const std::invalid_argument& e) {
    outcome.error = e.what();  // permanent: unknown MIG profile, bad config
    outcome.permanent = true;
  } catch (const std::out_of_range& e) {
    outcome.error = e.what();  // permanent: unknown model
    outcome.permanent = true;
  } catch (const std::exception& e) {
    outcome.error = e.what();  // transient: retryable
  } catch (...) {
    outcome.error = "unknown error";
  }
  outcome.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return outcome;
}

Coordinator::Coordinator(const std::vector<DiscoveryJob>& jobs,
                         const SchedulerOptions& options,
                         std::vector<JobResult> prefilled)
    : options_(options),
      max_attempts_(std::max<std::uint32_t>(options.retry.max_attempts, 1)),
      results_(std::move(prefilled)) {
  results_.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) results_[i].job = jobs[i];
  if (options_.progress) {
    options_.progress->total.store(jobs.size(), std::memory_order_relaxed);
  }
}

bool Coordinator::settle_early(std::size_t index) {
  JobResult& result = results_[index];
  if (result.from_journal) {
    settle(index);
    return true;
  }
  if (stopping()) {
    skip(index);
    return true;
  }
  if (options_.cache != nullptr) {
    try {
      if (auto cached = options_.cache->get(result.job)) {
        result.report = std::move(*cached);
        result.ok = true;
        result.from_cache = true;
      }
    } catch (...) {
      // A broken cache degrades to a recompute, never fails the job.
    }
  }
  if (!result.from_cache) return false;
  settle(index);
  return true;
}

bool Coordinator::stopping() const {
  return (options_.cancel != nullptr &&
          options_.cancel->load(std::memory_order_relaxed)) ||
         failed_fast_.load(std::memory_order_relaxed);
}

void Coordinator::skip(std::size_t index) {
  JobResult& result = results_[index];
  result.skipped = true;
  result.error = options_.cancel != nullptr &&
                         options_.cancel->load(std::memory_order_relaxed)
                     ? "skipped: sweep cancelled"
                     : "skipped: fail-fast abort after an earlier job failed";
  settle(index);
}

std::uint32_t Coordinator::start_attempt(std::size_t index) {
  JobResult& result = results_[index];
  if (++result.attempts > 1) {
    result.retried = true;
    count(&FleetProgress::retries, "fleet.retries");
  }
  return result.attempts;
}

std::optional<std::chrono::milliseconds> Coordinator::end_attempt(
    std::size_t index, AttemptOutcome outcome) {
  JobResult& result = results_[index];
  result.wall_seconds += outcome.wall_seconds;
  // Only the final attempt's verdict counts.
  result.timed_out = outcome.timed_out;
  result.crashed = outcome.crashed;
  if (outcome.timed_out) count(&FleetProgress::timeouts, "fleet.timeouts");
  if (outcome.crashed) {
    ++result.worker_crashes;
    count(&FleetProgress::worker_crashes, "fleet.worker_crashes");
  }
  if (outcome.ok) {
    result.ok = true;
    result.error.clear();
    result.report = std::move(outcome.report);
  } else {
    result.error = std::move(outcome.error);
    if (!outcome.permanent && result.attempts < max_attempts_) {
      return backoff_ms(options_.retry, result.attempts + 1);
    }
  }
  settle(index);
  return std::nullopt;
}

bool Coordinator::all_settled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return settled_ == results_.size();
}

void Coordinator::count(std::atomic<std::size_t> FleetProgress::*counter,
                        const char* metric) const {
  if (counter != nullptr && options_.progress != nullptr) {
    (options_.progress->*counter).fetch_add(1, std::memory_order_relaxed);
  }
  if (obs::metrics_enabled()) obs::Metrics::instance().add(metric);
}

void Coordinator::settle(std::size_t index) {
  JobResult& result = results_[index];
  const bool ran = !result.from_journal && !result.skipped;
  if (ran && !result.ok && options_.fail_fast) {
    failed_fast_.store(true, std::memory_order_relaxed);
  }
  if (result.from_cache) count(&FleetProgress::cache_hits, "fleet.cache_hits");
  if (result.skipped) {
    count(&FleetProgress::skipped, "fleet.jobs_skipped");
  } else if (!result.ok) {
    count(&FleetProgress::failed, "fleet.jobs_failed");
  }
  // A job that needed more than one attempt finished degraded even when it
  // ultimately succeeded — the signal an operator alerts on.
  if (result.retried || result.timed_out || result.worker_crashes > 0) {
    count(nullptr, "fleet.jobs_degraded");
  }
  count(&FleetProgress::done, "fleet.jobs_done");
  if (ran && result.ok && !result.from_cache && options_.cache != nullptr) {
    try {
      options_.cache->put(result.job, result.report);
    } catch (...) {
      // Cache write problems never demote a successful discovery.
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // Journal before reporting: once the callback observes this outcome it is
  // already durable. Skipped jobs are not journaled (a resumed run should
  // attempt them), and a failing journal keeps its error, never stopping.
  if (ran && options_.journal != nullptr) {
    try {
      options_.journal->append(result);
    } catch (...) {
    }
  }
  ++settled_;
  if (options_.on_result) options_.on_result(result, settled_, results_.size());
}

}  // namespace mt4g::fleet
