// Scheduler retry / timeout / fail-fast semantics, and the tentpole
// determinism property: a job that fails N-1 injected attempts and succeeds
// on attempt N produces the byte-identical report of a clean run, for every
// bench_threads x sweep_threads combination.
#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cancel.hpp"
#include "core/output/json_output.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"

namespace mt4g::fleet {
namespace {

std::vector<DiscoveryJob> test_jobs(std::uint32_t bench_threads = 1,
                                    std::uint32_t sweep_threads = 1) {
  SweepPlan plan;
  plan.models = {"TestGPU-NV", "TestGPU-AMD"};
  if (bench_threads > 1 || sweep_threads > 1) {
    core::DiscoverOptions options;
    options.bench_threads = bench_threads;
    options.sweep_threads = sweep_threads;
    plan.option_variants.push_back(options);
  }
  return expand_jobs(plan);
}

/// Plan: the first @p failures attempts of every fleet job throw.
FaultPlan transient_plan(std::uint32_t failures) {
  FaultRule rule;
  rule.site = fault::kSiteJobAttempt;
  rule.kind = FaultKind::kThrow;
  rule.count = failures;
  FaultPlan plan;
  plan.rules.push_back(std::move(rule));
  return plan;
}

TEST(FleetRetry, TransientFaultsHealAndReportsStayByteIdentical) {
  const std::vector<JobResult> clean = run_sweep(test_jobs());
  for (const auto& result : clean) ASSERT_TRUE(result.ok) << result.error;

  for (const std::uint32_t bench : {1u, 8u}) {
    for (const std::uint32_t sweep : {1u, 8u}) {
      SchedulerOptions options;
      options.retry.max_attempts = 3;
      ScopedFaultPlan armed(transient_plan(2));  // attempts 1+2 throw
      const auto results = run_sweep(test_jobs(bench, sweep), options);
      ASSERT_EQ(results.size(), clean.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        const JobResult& result = results[i];
        EXPECT_TRUE(result.ok) << result.job.key() << ": " << result.error;
        EXPECT_EQ(result.attempts, 3u) << result.job.key();
        EXPECT_TRUE(result.retried);
        EXPECT_FALSE(result.timed_out);
        // The tentpole contract: recovery is invisible in the report bytes.
        EXPECT_EQ(core::to_json_string(result.report),
                  core::to_json_string(clean[i].report))
            << result.job.key() << " bench=" << bench << " sweep=" << sweep;
      }
    }
  }
}

TEST(FleetRetry, ExhaustedRetriesFailWithTheLastError) {
  SchedulerOptions options;
  options.retry.max_attempts = 2;
  FleetProgress progress;
  options.progress = &progress;
  ScopedFaultPlan armed(transient_plan(5));  // more failures than attempts
  const auto results = run_sweep(test_jobs(), options);
  for (const auto& result : results) {
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.attempts, 2u);
    EXPECT_TRUE(result.retried);
    EXPECT_NE(result.error.find("injected fault"), std::string::npos)
        << result.error;
  }
  EXPECT_EQ(progress.retries.load(), results.size());
  EXPECT_EQ(progress.failed.load(), results.size());
}

TEST(FleetRetry, PermanentErrorsAreNeverRetried) {
  DiscoveryJob bad;
  bad.model = "TestGPU-NV";
  bad.mig_profile = "no-such-profile";  // run_job -> std::invalid_argument
  DiscoveryJob missing;
  missing.model = "NoSuchGPU";  // run_job -> std::out_of_range
  SchedulerOptions options;
  options.retry.max_attempts = 4;
  const auto results = run_sweep({bad, missing}, options);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.attempts, 1u)
        << "a malformed job must fail fast, not burn retries: "
        << result.error;
    EXPECT_FALSE(result.retried);
  }
}

TEST(FleetRetry, TimeoutClassifiesAsTimedOutAndCountsRetries) {
  // A hang far beyond the deadline on every stage: each attempt times out at
  // its first stage checkpoint.
  FaultRule rule;
  rule.site = fault::kSitePipelineStage;
  rule.kind = FaultKind::kHang;
  rule.sleep_ms = 80;
  rule.count = 0;  // every stage, every attempt
  FaultPlan plan;
  plan.rules.push_back(std::move(rule));
  ScopedFaultPlan armed(std::move(plan));

  SchedulerOptions options;
  options.retry.max_attempts = 2;
  options.retry.timeout_seconds = 0.02;
  FleetProgress progress;
  options.progress = &progress;
  SweepPlan sweep;
  sweep.models = {"TestGPU-NV"};
  const auto results = run_sweep(expand_jobs(sweep), options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_TRUE(results[0].timed_out);
  EXPECT_EQ(results[0].attempts, 2u);
  EXPECT_NE(results[0].error.find("deadline"), std::string::npos)
      << results[0].error;
  EXPECT_EQ(progress.timeouts.load(), 2u);  // both attempts timed out
  EXPECT_EQ(progress.retries.load(), 1u);

  const FleetReport fleet = aggregate(results);
  EXPECT_EQ(fleet.summary.failed, 1u);
  EXPECT_EQ(fleet.summary.timed_out, 1u);
  ASSERT_EQ(fleet.degraded.size(), 1u);
  EXPECT_EQ(fleet.degraded[0].reason, "timed_out");
}

TEST(Deadline, BudgetsBeyondTheClockNeverExpire) {
  // Converting such a budget to clock ticks would overflow and wrap the
  // deadline into the past; like NaN and <= 0 budgets, it means no deadline.
  for (const double seconds :
       {1e300, std::numeric_limits<double>::infinity()}) {
    const core::Deadline deadline = core::Deadline::after(seconds);
    EXPECT_FALSE(deadline.limited()) << seconds;
    EXPECT_FALSE(deadline.expired()) << seconds;
    EXPECT_NO_THROW(deadline.check("test")) << seconds;
  }
  const core::Deadline long_budget = core::Deadline::after(1e9);
  EXPECT_TRUE(long_budget.limited());
  EXPECT_FALSE(long_budget.expired());
}

TEST(FleetRetry, BackoffDelaysRetriesDeterministically) {
  SchedulerOptions options;
  options.retry.max_attempts = 3;
  options.retry.backoff_base_ms = 20;  // waits: 20 ms, then 40 ms
  ScopedFaultPlan armed(transient_plan(2));
  SweepPlan plan;
  plan.models = {"TestGPU-NV"};
  const auto start = std::chrono::steady_clock::now();
  const auto results = run_sweep(expand_jobs(plan), options);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].attempts, 3u);
  EXPECT_GE(elapsed_ms, 55.0) << "exponential backoff (20+40 ms) must apply";
}

TEST(FleetRetry, FailFastSkipsTheRemainingJobsExplicitly) {
  // Serial workers + a permanent fault on the first job: every later job
  // must finish as skipped, never silently dropped.
  FaultRule rule;
  rule.site = fault::kSiteJobAttempt;
  rule.kind = FaultKind::kThrow;
  rule.count = 0;  // unrecoverable
  rule.match = "model=TestGPU-NV";
  FaultPlan plan;
  plan.rules.push_back(std::move(rule));
  ScopedFaultPlan armed(std::move(plan));

  SweepPlan sweep;
  sweep.models = {"TestGPU-NV", "TestGPU-AMD"};
  sweep.seed_count = 2;
  SchedulerOptions options;
  options.workers = 1;  // deterministic claim order for the assertion
  options.fail_fast = true;
  FleetProgress progress;
  options.progress = &progress;
  const auto results = run_sweep(expand_jobs(sweep), options);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_FALSE(results[0].skipped);
  std::size_t skipped = 0;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].skipped) {
      ++skipped;
      EXPECT_FALSE(results[i].ok);
      EXPECT_EQ(results[i].attempts, 0u);
      EXPECT_NE(results[i].error.find("fail-fast"), std::string::npos);
    }
  }
  EXPECT_EQ(skipped, 3u);
  EXPECT_EQ(progress.skipped.load(), 3u);

  const FleetReport fleet = aggregate(results);
  EXPECT_EQ(fleet.summary.failed, 1u);
  EXPECT_EQ(fleet.summary.skipped, 3u);
  EXPECT_EQ(fleet.degraded.size(), 4u);  // 1 failed + 3 skipped, all named
}

TEST(FleetRetry, DegradedAggregateNamesExactlyTheUnrecoverableJob) {
  // One model is unrecoverable; the rest of the fleet reports normally.
  FaultRule rule;
  rule.site = fault::kSiteJobAttempt;
  rule.kind = FaultKind::kThrow;
  rule.match = "model=TestGPU-AMD";
  rule.count = 0;
  FaultPlan plan;
  plan.rules.push_back(std::move(rule));
  ScopedFaultPlan armed(std::move(plan));

  SchedulerOptions options;
  options.retry.max_attempts = 2;
  const auto results = run_sweep(test_jobs(), options);
  const FleetReport fleet = aggregate(results);
  EXPECT_EQ(fleet.summary.failed, 1u);
  EXPECT_EQ(fleet.summary.succeeded, results.size() - 1);
  ASSERT_EQ(fleet.degraded.size(), 1u);
  EXPECT_EQ(fleet.degraded[0].model, "TestGPU-AMD");
  EXPECT_EQ(fleet.degraded[0].reason, "failed");
  EXPECT_EQ(fleet.degraded[0].attempts, 2u);
  // The healthy model still has its matrix column — degradation is graceful.
  ASSERT_EQ(fleet.models.size(), 1u);
  EXPECT_EQ(fleet.models[0], "TestGPU-NV");

  const json::Value doc = fleet_to_json(fleet);
  const json::Value* degraded = doc.find("degraded");
  ASSERT_NE(degraded, nullptr);
  ASSERT_EQ(degraded->as_array().size(), 1u);
  EXPECT_EQ(degraded->as_array()[0].find("model")->as_string(),
            "TestGPU-AMD");
}

TEST(FleetRetry, MetricsCountRetriesAndDegradedJobs) {
  obs::Metrics::instance().reset();
  obs::Metrics::instance().enable();
  SchedulerOptions options;
  options.retry.max_attempts = 2;
  ScopedFaultPlan armed(transient_plan(1));  // first attempt of each job
  SweepPlan plan;
  plan.models = {"TestGPU-NV"};
  const auto results = run_sweep(expand_jobs(plan), options);
  obs::Metrics::instance().disable();
  ASSERT_TRUE(results[0].ok) << results[0].error;
  const std::string text = obs::Metrics::instance().prometheus_text();
  EXPECT_NE(text.find("mt4g_fleet_retries 1"), std::string::npos) << text;
  EXPECT_NE(text.find("mt4g_fleet_jobs_degraded 1"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace mt4g::fleet
