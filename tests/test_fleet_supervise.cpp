// Process-isolated supervisor (fleet/supervise.hpp), driven against the real
// worker binary (`mt4g_cli fleet-worker`): byte-identical results across the
// procs x sweep_threads grid, crash containment folded into the retry
// budget, crash-exhaustion reporting, garbage-worker containment, the
// supervised journal's no-duplicate-append discipline, one retry / fail-fast
// policy for both runners, worker reaping on every exit path, and the CLI's
// journal truncation and failed-write exit status.
//
// The worker binary is resolved as ./mt4g_cli relative to the ctest working
// directory (the build tree, where examples/ binaries land). When it is not
// there — e.g. a bare library build — the process-spawning tests skip.
#include <sys/wait.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/output/json_output.hpp"
#include "fleet/fleet.hpp"

namespace mt4g::fleet {
namespace {

const char kWorkerBinary[] = "./mt4g_cli";

bool worker_binary_available() {
  std::error_code ec;
  return std::filesystem::exists(kWorkerBinary, ec);
}

std::vector<DiscoveryJob> test_jobs(std::uint32_t sweep_threads = 1) {
  SweepPlan plan;
  plan.models = {"TestGPU-NV", "TestGPU-AMD"};
  plan.seed_count = 2;
  if (sweep_threads > 1) {
    core::DiscoverOptions options;
    options.sweep_threads = sweep_threads;
    plan.option_variants.push_back(options);
  }
  return expand_jobs(plan);
}

SupervisorOptions supervised(std::uint32_t procs) {
  SupervisorOptions options;
  options.procs = procs;
  options.worker_argv = {kWorkerBinary, "fleet-worker", "--heartbeat-ms",
                         "100"};
  return options;
}

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(testing::TempDir() + "mt4g_" + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Writes a fault plan that crashes the worker on the given attempt window
/// of every job whose key contains @p match.
std::string write_crash_plan(TempFile& file, const std::string& match,
                             std::uint32_t count) {
  std::ofstream out(file.path());
  out << R"({"version": 1, "seed": 0, "rules": [{"site": "fleet.worker.job",)"
      << R"( "kind": "crash", "match": ")" << match << R"(", "skip": 0,)"
      << R"( "count": )" << count << "}]}";
  return file.path();
}

TEST(FleetSupervise, EmptyWorkerArgvIsAConfigurationError) {
  SupervisorOptions options;
  EXPECT_THROW(run_supervised(test_jobs(), options), std::invalid_argument);
}

TEST(FleetSupervise, MatchesInProcessResultsAcrossTheProcsGrid) {
  if (!worker_binary_available()) GTEST_SKIP() << "no ./mt4g_cli in cwd";
  for (const std::uint32_t sweep : {1u, 4u}) {
    const auto jobs = test_jobs(sweep);
    const auto clean = run_sweep(jobs);
    for (const auto& result : clean) {
      ASSERT_TRUE(result.ok) << result.job.key() << ": " << result.error;
    }
    for (const std::uint32_t procs : {1u, 3u}) {
      FleetProgress progress;
      SupervisorOptions options = supervised(procs);
      options.progress = &progress;
      const auto results = run_supervised(jobs, options);
      ASSERT_EQ(results.size(), clean.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_TRUE(results[i].ok)
            << results[i].job.key() << ": " << results[i].error;
        // The tentpole contract: process isolation is invisible in the
        // report bytes for every procs x sweep_threads combination.
        EXPECT_EQ(core::to_json_string(results[i].report),
                  core::to_json_string(clean[i].report))
            << results[i].job.key() << " procs=" << procs
            << " sweep=" << sweep;
      }
      EXPECT_EQ(progress.done.load(), jobs.size());
      EXPECT_EQ(progress.worker_crashes.load(), 0u);
    }
  }
}

TEST(FleetSupervise, WorkerCrashHealsIntoTheRetryBudgetByteIdentical) {
  if (!worker_binary_available()) GTEST_SKIP() << "no ./mt4g_cli in cwd";
  const auto jobs = test_jobs();
  const auto clean = run_sweep(jobs);

  TempFile plan_file("crash_plan.json");
  // The first attempt of every TestGPU-NV job kills its worker mid-job.
  write_crash_plan(plan_file, "model=TestGPU-NV", 1);

  for (const std::uint32_t procs : {1u, 2u}) {
    FleetProgress progress;
    SupervisorOptions options = supervised(procs);
    options.worker_argv.push_back("--fault-plan");
    options.worker_argv.push_back(plan_file.path());
    options.retry.max_attempts = 3;
    options.progress = &progress;
    const auto results = run_supervised(jobs, options);
    ASSERT_EQ(results.size(), clean.size());
    std::size_t crashes = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const JobResult& result = results[i];
      EXPECT_TRUE(result.ok) << result.job.key() << ": " << result.error;
      EXPECT_FALSE(result.crashed);
      EXPECT_EQ(core::to_json_string(result.report),
                core::to_json_string(clean[i].report))
          << result.job.key() << " procs=" << procs;
      if (result.worker_crashes > 0) {
        ++crashes;
        EXPECT_TRUE(result.retried) << result.job.key();
        EXPECT_GE(result.attempts, 2u) << result.job.key();
        EXPECT_NE(result.job.key().find("TestGPU-NV"), std::string::npos);
      }
    }
    EXPECT_EQ(crashes, 2u) << "both NV jobs crash their first attempt";
    EXPECT_GE(progress.worker_crashes.load(), 2u);
  }
}

TEST(FleetSupervise, CrashLoopExhaustsTheBudgetAndIsReportedAsCrashed) {
  if (!worker_binary_available()) GTEST_SKIP() << "no ./mt4g_cli in cwd";
  SweepPlan plan;
  plan.models = {"TestGPU-NV", "TestGPU-AMD"};
  const auto jobs = expand_jobs(plan);

  TempFile plan_file("crash_loop_plan.json");
  write_crash_plan(plan_file, "model=TestGPU-AMD", 0);  // every attempt

  FleetProgress progress;
  SupervisorOptions options = supervised(2);
  options.worker_argv.push_back("--fault-plan");
  options.worker_argv.push_back(plan_file.path());
  options.retry.max_attempts = 2;
  options.progress = &progress;
  const auto results = run_supervised(jobs, options);
  ASSERT_EQ(results.size(), 2u);

  const JobResult* healthy = nullptr;
  const JobResult* doomed = nullptr;
  for (const auto& result : results) {
    (result.job.model == "TestGPU-AMD" ? doomed : healthy) = &result;
  }
  ASSERT_NE(healthy, nullptr);
  ASSERT_NE(doomed, nullptr);
  // The sweep carried on: the healthy model is unharmed by its neighbour
  // killing two workers.
  EXPECT_TRUE(healthy->ok) << healthy->error;
  EXPECT_FALSE(doomed->ok);
  EXPECT_TRUE(doomed->crashed);
  EXPECT_EQ(doomed->worker_crashes, 2u);
  EXPECT_EQ(doomed->attempts, 2u);
  EXPECT_NE(doomed->error.find("worker crashed"), std::string::npos)
      << doomed->error;

  const FleetReport fleet = aggregate(results);
  EXPECT_EQ(fleet.summary.failed, 1u);
  EXPECT_EQ(fleet.summary.worker_crashes, 2u);
  ASSERT_EQ(fleet.degraded.size(), 1u);
  EXPECT_EQ(fleet.degraded[0].reason, "crashed");
  EXPECT_EQ(fleet.degraded[0].model, "TestGPU-AMD");
}

TEST(FleetSupervise, GarbageSpewingWorkersAreContainedNotFatal) {
  // /bin/echo is a worst-case worker: one line of protocol garbage, then
  // EOF. The coordinator must classify it as a broken pool and fail the
  // jobs — never hang, never crash.
  SweepPlan plan;
  plan.models = {"TestGPU-NV"};
  const auto jobs = expand_jobs(plan);
  SupervisorOptions options;
  options.procs = 2;
  options.worker_argv = {"/bin/echo", "not-a-protocol-line"};
  options.retry.max_attempts = 2;
  std::vector<JobResult> results;
  ASSERT_NO_THROW(results = run_supervised(jobs, options));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_FALSE(results[0].error.empty());
}

TEST(FleetSupervise, ExitingWorkersAreContainedNotFatal) {
  // /bin/false never speaks at all — pure spawn-die loops must hit the
  // idle-death cap instead of forking forever.
  SweepPlan plan;
  plan.models = {"TestGPU-NV"};
  const auto jobs = expand_jobs(plan);
  SupervisorOptions options;
  options.procs = 1;
  options.worker_argv = {"/bin/false"};
  std::vector<JobResult> results;
  ASSERT_NO_THROW(results = run_supervised(jobs, options));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
}

TEST(FleetSupervise, JournalRecordsEveryOutcomeExactlyOnce) {
  if (!worker_binary_available()) GTEST_SKIP() << "no ./mt4g_cli in cwd";
  TempFile journal_file("supervised_journal.jsonl");
  const auto jobs = test_jobs();

  const auto count_lines = [&journal_file] {
    std::ifstream in(journal_file.path());
    std::size_t lines = 0;
    std::string line;
    while (std::getline(in, line)) ++lines;
    return lines;
  };

  {
    RunJournal journal = RunJournal::open(journal_file.path());
    SupervisorOptions options = supervised(2);
    options.journal = &journal;
    const auto results = run_supervised(jobs, options);
    for (const auto& result : results) {
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_FALSE(result.from_journal);
    }
  }
  EXPECT_EQ(count_lines(), jobs.size());
  const auto journaled = load_journal(journal_file.path());
  EXPECT_EQ(journaled.size(), jobs.size());

  // Resume with everything already journaled: the outcomes replay without a
  // single new attempt or journal append.
  std::vector<JobResult> prefilled;
  const auto pending = apply_journal(jobs, journaled, prefilled);
  EXPECT_TRUE(pending.empty());
  {
    RunJournal journal = RunJournal::open(journal_file.path());
    FleetProgress progress;
    SupervisorOptions options = supervised(2);
    options.journal = &journal;
    options.progress = &progress;
    const auto results =
        run_supervised(jobs, options, std::move(prefilled));
    ASSERT_EQ(results.size(), jobs.size());
    for (const auto& result : results) {
      EXPECT_TRUE(result.ok);
      EXPECT_TRUE(result.from_journal);
    }
    EXPECT_EQ(progress.cache_hits.load(), 0u)
        << "journal replays must not masquerade as cache hits";
  }
  EXPECT_EQ(count_lines(), jobs.size())
      << "replayed results must not be re-journaled";
}

TEST(FleetSupervise, OnePolicyTwoExecutorsSettleJobsAlike) {
  if (!worker_binary_available()) GTEST_SKIP() << "no ./mt4g_cli in cwd";
  DiscoveryJob bad_profile;
  bad_profile.model = "TestGPU-NV";
  bad_profile.mig_profile = "no-such-profile";  // std::invalid_argument
  DiscoveryJob unknown_model;
  unknown_model.model = "NoSuchGPU";  // std::out_of_range
  struct Scenario {
    const char* name;
    std::vector<DiscoveryJob> jobs;
    const char* failing;  ///< every attempt of a job whose key has it throws
    std::uint32_t max_attempts;
    bool fail_fast;
    std::size_t failed;
    std::size_t skipped;
  };
  const Scenario scenarios[] = {
      {"exhausted retries", test_jobs(), "model=", 2, false, 4, 0},
      {"permanent error", {bad_profile, unknown_model}, "no-such-key", 4,
       false, 2, 0},
      {"fail-fast", test_jobs(), "model=TestGPU-NV", 1, true, 1, 3},
  };
  TempFile plan_file("parity_plan.json");
  for (const Scenario& scenario : scenarios) {
    {
      std::ofstream out(plan_file.path());
      out << R"({"version": 1, "rules": [{"site": "fleet.job.attempt",)"
          << R"( "kind": "throw", "count": 0, "match": ")" << scenario.failing
          << R"("}]})";
    }
    SupervisorOptions options = supervised(1);
    options.worker_argv.push_back("--fault-plan");
    options.worker_argv.push_back(plan_file.path());
    options.workers = 1;
    options.retry.max_attempts = scenario.max_attempts;
    options.fail_fast = scenario.fail_fast;
    std::vector<JobResult> in_process;
    {
      ScopedFaultPlan armed(load_fault_plan_file(plan_file.path()));
      in_process = run_sweep(scenario.jobs, options);
    }
    const auto supervised_results = run_supervised(scenario.jobs, options);
    ASSERT_EQ(supervised_results.size(), in_process.size()) << scenario.name;
    std::size_t failed = 0;
    std::size_t skipped = 0;
    for (std::size_t i = 0; i < in_process.size(); ++i) {
      const JobResult& a = in_process[i];
      const JobResult& b = supervised_results[i];
      const std::string where = std::string(scenario.name) + ": " + a.job.key();
      EXPECT_EQ(a.ok, b.ok) << where;
      EXPECT_EQ(a.skipped, b.skipped) << where;
      EXPECT_EQ(a.attempts, b.attempts) << where;
      EXPECT_EQ(a.retried, b.retried) << where;
      EXPECT_EQ(a.timed_out, b.timed_out) << where;
      EXPECT_EQ(a.error, b.error) << where;
      failed += !b.ok && !b.skipped;
      skipped += b.skipped;
    }
    EXPECT_EQ(failed, scenario.failed) << scenario.name;
    EXPECT_EQ(skipped, scenario.skipped) << scenario.name;
  }
}

TEST(FleetSupervise, FailingJournalOrCallbackStillReapsEveryWorker) {
  if (!worker_binary_available()) GTEST_SKIP() << "no ./mt4g_cli in cwd";
  const auto jobs = test_jobs();
  const auto no_children_left = [] {
    errno = 0;
    return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
  };

  // A closed journal throws on every append: the sweep warns through
  // RunJournal::error() and carries on.
  RunJournal closed;
  SupervisorOptions options = supervised(2);
  options.journal = &closed;
  std::vector<JobResult> results;
  ASSERT_NO_THROW(results = run_supervised(jobs, options));
  ASSERT_EQ(results.size(), jobs.size());
  for (const auto& result : results) EXPECT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(closed.error().empty());
  EXPECT_TRUE(no_children_left()) << "a worker outlived run_supervised";

  // A throwing callback leaves run_supervised early; the pool goes with it.
  SupervisorOptions throwing = supervised(2);
  throwing.on_result = [](const JobResult&, std::size_t, std::size_t) {
    throw std::runtime_error("on_result failed");
  };
  EXPECT_THROW(run_supervised(jobs, throwing), std::runtime_error);
  EXPECT_TRUE(no_children_left()) << "a worker outlived run_supervised";
}

/// A scratch directory for one CLI run, removed again afterwards.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(testing::TempDir() + "mt4g_" + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(FleetCli, JournalWithoutResumeTruncatesInPlace) {
  if (!worker_binary_available()) GTEST_SKIP() << "no ./mt4g_cli in cwd";
  TempDir dir("journal_symlink");
  const std::string target = dir.path() + "/target.jsonl";
  const std::string link = dir.path() + "/run.jsonl";
  {
    std::ofstream out(target);
    out << "left over from an earlier run\n";
  }
  std::filesystem::create_symlink(target, link);
  const std::string command =
      std::string(kWorkerBinary) +
      " fleet --models TestGPU-NV --no-mig --cache none --quiet --journal " +
      link + " --out " + dir.path() + " > /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0);
  EXPECT_TRUE(std::filesystem::is_symlink(link))
      << "starting a journal over must not replace what sits at its path";
  std::ifstream in(target);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, 1u);
  EXPECT_EQ(load_journal(target).size(), 1u);
}

TEST(FleetCli, FailedReportWritesExitNonzero) {
  if (!worker_binary_available()) GTEST_SKIP() << "no ./mt4g_cli in cwd";
  TempDir dir("write_limit");
  // No file may grow past 0 bytes, and writes past the limit fail with
  // EFBIG instead of killing the process.
  const auto under_size_limit = [&](const std::string& args) {
    const std::string command = "sh -c 'trap \"\" XFSZ; ulimit -f 0; exec " +
                                std::string(kWorkerBinary) + " " + args +
                                " --out " + dir.path() + "' > /dev/null 2>&1";
    return std::system(command.c_str());
  };
  EXPECT_NE(under_size_limit("--gpu TestGPU-NV -q -j"), 0);
  EXPECT_NE(under_size_limit("fleet --models TestGPU-NV --no-mig --cache none "
                             "--quiet"),
            0);
}

}  // namespace
}  // namespace mt4g::fleet
