// Run journal (fleet/journal.hpp): record round-trips, torn-tail tolerance,
// foreign-file rejection, and the satellite acceptance property — a resumed
// run's aggregate is byte-identical to the uninterrupted run's.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "core/output/json_output.hpp"
#include "fleet/fleet.hpp"

namespace mt4g::fleet {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "mt4g_" + name;
}

class TempFile {
 public:
  explicit TempFile(const std::string& name) : path_(temp_path(name)) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<DiscoveryJob> test_jobs() {
  SweepPlan plan;
  plan.models = {"TestGPU-NV", "TestGPU-AMD"};
  plan.seed_count = 2;
  return expand_jobs(plan);
}

/// Aggregate JSON with the host-timing field neutralised — the only value
/// that legitimately differs between two runs of the same jobs.
std::string aggregate_json(std::vector<JobResult> results) {
  for (auto& result : results) result.wall_seconds = 0.0;
  return fleet_to_json(aggregate(results)).dump(2);
}

TEST(RunJournal, OkAndFailedRecordsRoundTrip) {
  TempFile file("journal_roundtrip.jsonl");
  const auto jobs = test_jobs();
  const auto results = run_sweep({jobs[0]});
  ASSERT_TRUE(results[0].ok) << results[0].error;

  JobResult failure;
  failure.job = jobs[1];
  failure.ok = false;
  failure.error = "injected fault: gave up";

  {
    RunJournal journal = RunJournal::open(file.path());
    ASSERT_TRUE(journal.is_open());
    journal.append(results[0]);
    journal.append(failure);
  }

  const auto loaded = load_journal(file.path());
  ASSERT_EQ(loaded.size(), 2u);
  const auto ok_it = loaded.find(jobs[0].key());
  ASSERT_NE(ok_it, loaded.end());
  EXPECT_TRUE(ok_it->second.ok);
  EXPECT_EQ(core::to_json_string(ok_it->second.report),
            core::to_json_string(results[0].report))
      << "a journaled report must replay byte-exactly";
  const auto failed_it = loaded.find(jobs[1].key());
  ASSERT_NE(failed_it, loaded.end());
  EXPECT_FALSE(failed_it->second.ok);
  EXPECT_EQ(failed_it->second.error, "injected fault: gave up");
}

TEST(RunJournal, ReplayedReportsKeepTheirDoublesBitForBit) {
  TempFile file("journal_exact.jsonl");
  auto results = run_sweep({test_jobs()[0]});
  ASSERT_TRUE(results[0].ok) << results[0].error;
  results[0].report.simulated_seconds = 1.0 / 3.0;  // beyond %.10g
  {
    RunJournal journal = RunJournal::open(file.path());
    journal.append(results[0]);
  }
  const auto loaded = load_journal(file.path());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.begin()->second.report.simulated_seconds, 1.0 / 3.0)
      << "a resumed aggregate sums the replayed doubles";
}

TEST(RunJournal, OutdatedRecordsLeaveTheirJobsPending) {
  // A v1 record predates the one cost model: replaying its report would
  // resume with stale meta cycles, so the loader skips it and counts it.
  TempFile file("journal_v1.jsonl");
  const auto jobs = test_jobs();
  const auto results = run_sweep({jobs[1]});
  {
    RunJournal journal = RunJournal::open(file.path());
    journal.append(results[0]);
  }
  {
    std::ofstream out(file.path(), std::ios::app | std::ios::binary);
    out << R"({"v":1,"key":")" << jobs[0].key()
        << R"(","error":"written before the cost model changed"})" << "\n";
  }
  std::size_t outdated = 0;
  const auto loaded = load_journal(file.path(), &outdated);
  EXPECT_EQ(outdated, 1u);
  EXPECT_EQ(loaded.count(jobs[0].key()), 0u);
  EXPECT_EQ(loaded.count(jobs[1].key()), 1u);
  std::vector<JobResult> prefilled;
  const auto pending = apply_journal(jobs, loaded, prefilled);
  EXPECT_NE(std::find(pending.begin(), pending.end(), 0u), pending.end())
      << "the v1 record's job must rerun";
  EXPECT_TRUE(prefilled[1].from_journal);
}

TEST(RunJournal, MissingFileIsAnEmptyJournal) {
  EXPECT_TRUE(load_journal(temp_path("no_such_journal.jsonl")).empty());
}

TEST(RunJournal, TornTailIsDroppedAndTheJobSimplyReruns) {
  TempFile file("journal_torn.jsonl");
  const auto jobs = test_jobs();
  const auto results = run_sweep({jobs[0]});
  {
    RunJournal journal = RunJournal::open(file.path());
    journal.append(results[0]);
  }
  {
    // A kill -9 mid-write leaves an unterminated fragment of a record.
    std::ofstream out(file.path(), std::ios::app | std::ios::binary);
    out << R"({"v":1,"key":"model=TestGPU-AMD)";  // no closing quote, no \n
  }
  const auto loaded = load_journal(file.path());
  EXPECT_EQ(loaded.size(), 1u) << "the torn tail must be dropped, not fatal";
  EXPECT_EQ(loaded.count(jobs[0].key()), 1u);
}

TEST(RunJournal, ForeignContentIsAnErrorNotACrashArtifact) {
  TempFile file("journal_foreign.jsonl");
  {
    // Newline-terminated garbage mid-file cannot be a torn tail — it means
    // the path points at something that is not a journal.
    std::ofstream out(file.path(), std::ios::binary);
    out << "not json\n" << R"({"v":1,"key":"k","error":"e"})" << "\n";
  }
  EXPECT_THROW(load_journal(file.path()), std::runtime_error);

  {
    std::ofstream out(file.path(), std::ios::trunc | std::ios::binary);
    out << R"({"some":"other","file":"entirely"})" << "\n";
  }
  EXPECT_THROW(load_journal(file.path()), std::runtime_error);

  {
    std::ofstream out(file.path(), std::ios::trunc | std::ios::binary);
    out << R"({"v":3,"key":"k","error":"future layout"})" << "\n";
  }
  EXPECT_THROW(load_journal(file.path()), std::runtime_error);
}

TEST(RunJournal, ApplyJournalPrefillsSlotsAndReturnsThePending) {
  const auto jobs = test_jobs();
  ASSERT_EQ(jobs.size(), 4u);
  const auto baseline = run_sweep({jobs[0], jobs[2]});

  std::map<std::string, JournalEntry> journaled;
  JournalEntry ok_entry;
  ok_entry.ok = true;
  ok_entry.report = baseline[0].report;
  journaled[jobs[0].key()] = ok_entry;
  JournalEntry failed_entry;
  failed_entry.error = "exhausted retries last run";
  journaled[jobs[2].key()] = failed_entry;

  std::vector<JobResult> results;
  const auto pending = apply_journal(jobs, journaled, results);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(pending, (std::vector<std::size_t>{1, 3}));

  EXPECT_TRUE(results[0].from_journal);
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(core::to_json_string(results[0].report),
            core::to_json_string(baseline[0].report));
  // The failed job is restored as failed — resume must not re-burn a retry
  // budget the previous run already exhausted.
  EXPECT_TRUE(results[2].from_journal);
  EXPECT_FALSE(results[2].ok);
  EXPECT_EQ(results[2].error, "exhausted retries last run");
  EXPECT_FALSE(results[1].from_journal);
  EXPECT_FALSE(results[3].from_journal);
}

TEST(RunJournal, ResumedRunAggregatesByteIdentical) {
  TempFile file("journal_resume.jsonl");
  const auto jobs = test_jobs();

  // The uninterrupted run — the oracle.
  const auto uninterrupted = run_sweep(jobs);
  for (const auto& result : uninterrupted) {
    ASSERT_TRUE(result.ok) << result.job.key() << ": " << result.error;
  }
  const std::string expected = aggregate_json(uninterrupted);

  // The interrupted run: two jobs made it to the journal before the
  // coordinator died (append + fsync happen before the run proceeds).
  {
    RunJournal journal = RunJournal::open(file.path());
    journal.append(uninterrupted[0]);
    journal.append(uninterrupted[1]);
  }

  // --resume: prefill from the journal, run only the remainder.
  std::vector<JobResult> results;
  const auto pending = apply_journal(jobs, load_journal(file.path()), results);
  EXPECT_EQ(pending, (std::vector<std::size_t>{2, 3}));
  std::vector<DiscoveryJob> rest;
  for (const std::size_t index : pending) rest.push_back(jobs[index]);
  const auto rest_results = run_sweep(rest);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    results[pending[i]] = rest_results[i];
  }

  EXPECT_EQ(aggregate_json(results), expected)
      << "a resumed run must be invisible in the aggregate bytes";

  // from_journal results must not masquerade as cache hits — the
  // uninterrupted run had none, and byte-identity depends on it.
  const FleetReport fleet = aggregate(results);
  EXPECT_EQ(fleet.summary.cache_hits, 0u);
  EXPECT_EQ(fleet.summary.succeeded, jobs.size());
}

}  // namespace
}  // namespace mt4g::fleet
