#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/output/json_output.hpp"
#include "fleet/fleet.hpp"
#include "sim/registry.hpp"

namespace mt4g::fleet {
namespace {

/// Fast whole-path plan: both synthetic models, two seeds.
SweepPlan synthetic_plan() {
  SweepPlan plan;
  plan.models = {"TestGPU-NV", "TestGPU-AMD"};
  plan.seed_count = 2;
  return plan;
}

TEST(FleetJob, KeyEncodesEveryField) {
  DiscoveryJob job;
  job.model = "TestGPU-NV";
  const std::string base = job.key();

  DiscoveryJob changed = job;
  changed.seed = 7;
  EXPECT_NE(changed.key(), base);
  changed = job;
  changed.mig_profile = "1g.5gb";
  EXPECT_NE(changed.key(), base);
  changed = job;
  changed.cache_config = "PreferShared";
  EXPECT_NE(changed.key(), base);
  changed = job;
  changed.options.only = {sim::Element::kL1};
  EXPECT_NE(changed.key(), base);
  changed = job;
  changed.options.collect_series = true;
  EXPECT_NE(changed.key(), base);
  changed = job;
  changed.options.measure_compute = true;
  EXPECT_NE(changed.key(), base);

  EXPECT_EQ(DiscoveryJob(job).key(), base);
  EXPECT_EQ(DiscoveryJob(job).hash(), job.hash());
}

TEST(FleetJob, HashIsStableAcrossProcesses) {
  // Pinned value: FNV-1a over the canonical key. A change here means every
  // existing cache file silently invalidates — bump the cache-file version
  // if the key format must evolve.
  DiscoveryJob job;
  job.model = "H100-80";
  // The trailing spec component is the content hash of the H100-80 spec —
  // resolved from the default registry because the job carries no spec.
  EXPECT_EQ(job.key(),
            "model=H100-80;seed=42;mig=-;config=PreferL1;only=-;series=0;"
            "compute=0;spec=" +
                sim::spec_content_hash_hex(sim::registry_get("H100-80")));
  EXPECT_EQ(job.hash_hex().size(), 16u);
  EXPECT_EQ(job.hash_hex(), "4d601011a57fbc98");
}

TEST(FleetJob, ExpandCoversModelsSeedsAndMigPartitions) {
  SweepPlan plan;
  plan.models = {"A100", "TestGPU-NV"};
  plan.seed_count = 2;
  const auto jobs = expand_jobs(plan);

  // A100: full GPU + 4 MIG partitions ("full" pseudo-profile skipped);
  // TestGPU-NV: full GPU only. Each times 2 seeds.
  EXPECT_EQ(jobs.size(), (1 + 4 + 1) * 2u);
  std::set<std::string> keys;
  for (const auto& job : jobs) keys.insert(job.key());
  EXPECT_EQ(keys.size(), jobs.size()) << "duplicate jobs in expansion";

  SweepPlan no_mig = plan;
  no_mig.include_mig = false;
  EXPECT_EQ(expand_jobs(no_mig).size(), 2 * 2u);
}

TEST(FleetJob, RunJobRejectsUnknownModelAndProfile) {
  DiscoveryJob job;
  job.model = "B200";
  EXPECT_THROW(run_job(job), std::out_of_range);
  job.model = "TestGPU-NV";
  job.mig_profile = "4g.20gb";
  EXPECT_THROW(run_job(job), std::invalid_argument);
}

TEST(FleetScheduler, ResultsAreDeterministicAcrossWorkerCounts) {
  const auto jobs = expand_jobs(synthetic_plan());
  ASSERT_EQ(jobs.size(), 4u);

  std::vector<std::vector<std::string>> runs;
  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    SchedulerOptions options;
    options.workers = workers;
    const auto results = run_sweep(jobs, options);
    ASSERT_EQ(results.size(), jobs.size());
    std::vector<std::string> serialised;
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_TRUE(results[i].ok) << results[i].error;
      EXPECT_EQ(results[i].job.key(), jobs[i].key())
          << "result order must match job order";
      serialised.push_back(core::to_json_string(results[i].report));
    }
    runs.push_back(std::move(serialised));
  }
  EXPECT_EQ(runs[0], runs[1]) << "1 vs 2 workers";
  EXPECT_EQ(runs[0], runs[2]) << "1 vs 8 workers";
}

TEST(FleetScheduler, ProgressCallbackSeesEveryJobOnce) {
  const auto jobs = expand_jobs(synthetic_plan());
  SchedulerOptions options;
  options.workers = 4;
  std::vector<std::string> seen;
  std::size_t last_total = 0;
  options.on_result = [&](const JobResult& result, std::size_t done,
                          std::size_t total) {
    seen.push_back(result.job.key());
    EXPECT_EQ(done, seen.size());
    last_total = total;
  };
  (void)run_sweep(jobs, options);
  EXPECT_EQ(last_total, jobs.size());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::set<std::string>(seen.begin(), seen.end()).size(),
            jobs.size());
}

TEST(FleetAggregate, SweepWithOneFailingJobStillAggregates) {
  auto jobs = expand_jobs(synthetic_plan());
  DiscoveryJob bad;
  bad.model = "NoSuchGPU";
  jobs.insert(jobs.begin() + 1, bad);  // fail mid-sweep, not at the edges

  SchedulerOptions options;
  options.workers = 2;
  const auto results = run_sweep(jobs, options);
  ASSERT_EQ(results.size(), jobs.size());
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("NoSuchGPU"), std::string::npos);

  const FleetReport fleet = aggregate(results);
  EXPECT_EQ(fleet.summary.total_jobs, jobs.size());
  EXPECT_EQ(fleet.summary.failed, 1u);
  EXPECT_EQ(fleet.summary.succeeded, jobs.size() - 1);
  ASSERT_EQ(fleet.failures.size(), 1u);
  EXPECT_EQ(fleet.failures[0].key, bad.key());
  // Both synthetic models still make it into the matrix columns.
  EXPECT_EQ(fleet.models,
            (std::vector<std::string>{"TestGPU-NV", "TestGPU-AMD"}));
  EXPECT_FALSE(fleet.matrix.empty());
  for (const auto& row : fleet.matrix) {
    EXPECT_EQ(row.values.size(), fleet.models.size());
  }
  // Detection is seed-independent on the synthetic models.
  EXPECT_TRUE(fleet.disagreements.empty());

  const std::string markdown = to_markdown(fleet);
  EXPECT_NE(markdown.find("## Failures"), std::string::npos);
  EXPECT_NE(markdown.find("NoSuchGPU"), std::string::npos);
  EXPECT_NE(markdown.find("## Comparison matrix"), std::string::npos);
}

TEST(FleetAggregate, CoverageCountsResolvedAttributes) {
  const auto results = run_sweep(expand_jobs(synthetic_plan()), {});
  const FleetReport fleet = aggregate(results);
  ASSERT_FALSE(fleet.coverage.empty());
  bool saw_l2 = false;
  for (const auto& coverage : fleet.coverage) {
    EXPECT_GT(coverage.attributes_total, 0u) << coverage.element;
    EXPECT_LE(coverage.attributes_available, coverage.attributes_total);
    EXPECT_GE(coverage.fraction(), 0.0);
    EXPECT_LE(coverage.fraction(), 1.0);
    if (coverage.element == "L2") {
      saw_l2 = true;
      EXPECT_EQ(coverage.models_reporting, 2u);
    }
  }
  EXPECT_TRUE(saw_l2);
}

TEST(FleetAggregate, DiffVsBaselineFlagsInjectedRegression) {
  const auto results = run_sweep(expand_jobs(synthetic_plan()), {});
  ASSERT_TRUE(results[0].ok);

  std::map<std::string, core::TopologyReport> baselines;
  for (const auto& result : results) {
    if (result.ok && baselines.count(result.job.model) == 0) {
      baselines.emplace(result.job.model, result.report);
    }
  }
  // Identical baselines: every compared model matches.
  for (const auto& diff : diff_vs_baseline(results, baselines)) {
    EXPECT_TRUE(diff.differences.empty()) << diff.model;
  }

  // Corrupt one discrete attribute of one baseline: exactly that model
  // reports differences.
  auto& tampered = baselines.at("TestGPU-NV");
  ASSERT_FALSE(tampered.memory.empty());
  tampered.memory[0].size.value *= 2;
  bool flagged = false;
  for (const auto& diff : diff_vs_baseline(results, baselines)) {
    if (diff.model == "TestGPU-NV") {
      flagged = !diff.differences.empty();
    } else {
      EXPECT_TRUE(diff.differences.empty()) << diff.model;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(FleetAggregate, FleetJsonHasTheDocumentedShape) {
  const auto results = run_sweep(expand_jobs(synthetic_plan()), {});
  const json::Value doc = fleet_to_json(aggregate(results));
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("summary"), nullptr);
  EXPECT_EQ(doc.find("summary")->find("total_jobs")->as_int(), 4);
  EXPECT_EQ(doc.find("summary")->find("failed")->as_int(), 0);
  ASSERT_TRUE(doc.find("models")->is_array());
  EXPECT_EQ(doc.find("models")->as_array().size(), 2u);
  ASSERT_TRUE(doc.find("matrix")->is_array());
  EXPECT_FALSE(doc.find("matrix")->as_array().empty());
  ASSERT_NE(doc.find("degraded"), nullptr);
  EXPECT_TRUE(doc.find("degraded")->as_array().empty());
}

TEST(FleetAggregate, DegradedBlockListsFailedTimedOutAndSkippedJobs) {
  // Hand-built results: one success, one failure, one timeout, one skip —
  // the aggregate must name every non-delivered job with its reason.
  std::vector<JobResult> results(4);
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].job.model = "TestGPU-NV";
    results[i].job.seed = 42 + i;
  }
  results[0].ok = true;
  results[0].report = run_job(results[0].job);
  results[0].attempts = 1;
  results[1].ok = false;
  results[1].error = "benchmark exploded";
  results[1].attempts = 3;
  results[1].retried = true;
  results[2].ok = false;
  results[2].timed_out = true;
  results[2].error = "wall-clock deadline exceeded at pipeline.stage";
  results[2].attempts = 2;
  results[2].retried = true;
  results[3].skipped = true;

  const FleetReport fleet = aggregate(results);
  EXPECT_EQ(fleet.summary.succeeded, 1u);
  EXPECT_EQ(fleet.summary.failed, 2u);  // skipped is its own bucket
  EXPECT_EQ(fleet.summary.skipped, 1u);
  EXPECT_EQ(fleet.summary.timed_out, 1u);
  EXPECT_EQ(fleet.summary.retried, 2u);
  EXPECT_EQ(fleet.summary.retries, 3u);  // (3-1) + (2-1)

  ASSERT_EQ(fleet.degraded.size(), 3u);
  EXPECT_EQ(fleet.degraded[0].reason, "failed");
  EXPECT_EQ(fleet.degraded[0].attempts, 3u);
  EXPECT_EQ(fleet.degraded[1].reason, "timed_out");
  EXPECT_EQ(fleet.degraded[2].reason, "skipped");
  EXPECT_TRUE(fleet.degraded[2].error.empty());

  const std::string markdown = to_markdown(fleet);
  EXPECT_NE(markdown.find("## Degraded jobs"), std::string::npos);
  EXPECT_NE(markdown.find("timed_out"), std::string::npos);
  EXPECT_NE(markdown.find("skipped 1"), std::string::npos);

  const json::Value doc = fleet_to_json(fleet);
  EXPECT_EQ(doc.find("summary")->find("skipped")->as_int(), 1);
  EXPECT_EQ(doc.find("summary")->find("timed_out")->as_int(), 1);
  EXPECT_EQ(doc.find("summary")->find("retries")->as_int(), 3);
  ASSERT_EQ(doc.find("degraded")->as_array().size(), 3u);
  EXPECT_EQ(
      doc.find("degraded")->as_array()[1].find("reason")->as_string(),
      "timed_out");
}

}  // namespace
}  // namespace mt4g::fleet
