#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "common/json_parse.hpp"
#include "core/output/json_output.hpp"
#include "fleet/fleet.hpp"
#include "sim/registry.hpp"

namespace mt4g::fleet {
namespace {

DiscoveryJob synthetic_job(std::uint64_t seed = 42) {
  DiscoveryJob job;
  job.model = "TestGPU-NV";
  job.seed = seed;
  return job;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "mt4g_" + name;
}

class TempFile {
 public:
  explicit TempFile(const std::string& name) : path_(temp_path(name)) {
    cleanup();
  }
  ~TempFile() { cleanup(); }
  const std::string& path() const { return path_; }

 private:
  /// Also removes the sidecars a cache may leave: the pid-suffixed
  /// atomic-save temp files, the cross-process lock file, and the quarantine
  /// file of a salvaging load.
  void cleanup() {
    std::remove(path_.c_str());
    std::remove((path_ + ".lock").c_str());
    std::remove((path_ + ".quarantine").c_str());
    namespace fs = std::filesystem;
    const fs::path target(path_);
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(
             target.parent_path().empty() ? fs::path(".")
                                          : target.parent_path(),
             ec)) {
      const std::string name = entry.path().filename().string();
      const std::string prefix = target.filename().string() + ".tmp";
      if (name.compare(0, prefix.size(), prefix) == 0) {
        fs::remove(entry.path(), ec);
      }
    }
  }

  std::string path_;
};

TEST(FleetCache, MissThenHitRoundTripsTheReport) {
  ResultCache cache;
  const DiscoveryJob job = synthetic_job();
  EXPECT_FALSE(cache.get(job).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  const core::TopologyReport report = run_job(job);
  cache.put(job, report);
  EXPECT_TRUE(cache.contains(job));
  EXPECT_EQ(cache.size(), 1u);

  const auto cached = cache.get(job);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(core::to_json_string(*cached), core::to_json_string(report));

  // A different seed is different work: miss, not a stale hit.
  EXPECT_FALSE(cache.get(synthetic_job(43)).has_value());
}

TEST(FleetCache, FileRoundTripAcrossInstances) {
  TempFile file("cache_roundtrip.json");
  const DiscoveryJob job = synthetic_job();
  const core::TopologyReport report = run_job(job);
  {
    ResultCache cache(file.path());
    EXPECT_TRUE(cache.load_error().empty());  // missing file is not an error
    cache.put(job, report);
    EXPECT_TRUE(cache.save());
  }
  ResultCache reloaded(file.path());
  EXPECT_TRUE(reloaded.load_error().empty());
  EXPECT_EQ(reloaded.size(), 1u);
  const auto cached = reloaded.get(job);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(core::to_json_string(*cached), core::to_json_string(report));
}

TEST(FleetCache, ReloadedReportsKeepTheirDoublesBitForBit) {
  // A report served from a reloaded cache must equal the one that was put,
  // beyond the 10th digit too: through save, load, and the merge of a
  // second process's save.
  TempFile file("cache_exact.json");
  const DiscoveryJob job = synthetic_job();
  const DiscoveryJob other = synthetic_job(43);
  core::TopologyReport report = run_job(job);
  report.simulated_seconds = 1.0 / 3.0;
  ResultCache merging(file.path());  // loaded before the first save
  {
    ResultCache cache(file.path());
    cache.put(job, report);
    EXPECT_TRUE(cache.save());
  }
  merging.put(other, run_job(other));
  EXPECT_TRUE(merging.save());  // re-reads and keeps the first entry
  ResultCache reloaded(file.path());
  EXPECT_TRUE(reloaded.load_error().empty());
  const auto cached = reloaded.get(job);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->simulated_seconds, 1.0 / 3.0);
  EXPECT_EQ(core::to_json_string(*cached), core::to_json_string(report));
}

TEST(FleetCache, CorruptedFileRecoversEmpty) {
  const char* corruptions[] = {
      "not json at all {{{",
      "[1, 2, 3]",
      R"({"version": 99, "entries": []})",
      R"({"version": 7, "entries": [{"hash": "abc"}]})",
      R"({"version": 7, "entries": [{"hash": "abc", "key": "k",
          "report": {"general": "truncated"}}]})",
  };
  for (const char* corruption : corruptions) {
    TempFile file("cache_corrupt.json");
    {
      std::ofstream out(file.path());
      out << corruption;
    }
    ResultCache cache(file.path());
    EXPECT_FALSE(cache.load_error().empty()) << corruption;
    EXPECT_EQ(cache.size(), 0u) << corruption;

    // Recovery: the next save overwrites the corrupted file wholesale.
    const DiscoveryJob job = synthetic_job();
    cache.put(job, run_job(job));
    EXPECT_TRUE(cache.save());
    ResultCache healed(file.path());
    EXPECT_TRUE(healed.load_error().empty()) << corruption;
    EXPECT_TRUE(healed.get(job).has_value()) << corruption;
  }
}

TEST(FleetCache, SchedulerSkipsCachedJobsOnRerun) {
  const SweepPlan plan = [] {
    SweepPlan p;
    p.models = {"TestGPU-NV", "TestGPU-AMD"};
    p.seed_count = 2;
    return p;
  }();
  const auto jobs = expand_jobs(plan);

  ResultCache cache;
  SchedulerOptions options;
  options.workers = 2;
  options.cache = &cache;

  const auto cold = run_sweep(jobs, options);
  for (const auto& result : cold) EXPECT_FALSE(result.from_cache);
  EXPECT_EQ(cache.size(), jobs.size());

  const auto warm = run_sweep(jobs, options);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].from_cache) << warm[i].job.key();
    EXPECT_EQ(core::to_json_string(warm[i].report),
              core::to_json_string(cold[i].report));
  }
  const FleetReport fleet = aggregate(warm);
  EXPECT_EQ(fleet.summary.cache_hits, jobs.size());
}

/// Builds a frozen registry whose TestGPU-NV spec is @p edit-ed in place —
/// the in-process equivalent of pointing --model-spec at an edited file.
sim::ModelRegistry registry_with_edit(void (*edit)(sim::GpuSpec&)) {
  sim::ModelRegistry registry;
  for (const sim::ModelEntry& entry : sim::default_registry().entries()) {
    sim::GpuSpec spec = entry.spec;
    if (spec.name == "TestGPU-NV") edit(spec);
    registry.add(std::move(spec), entry.kind, entry.source);
  }
  registry.freeze();
  return registry;
}

TEST(FleetCache, SpecEditChangesTheJobKeyAndRevertRestoresTheHit) {
  SweepPlan plan;
  plan.models = {"TestGPU-NV"};

  // 1. Populate the cache from the pristine spec.
  ResultCache cache;
  SchedulerOptions options;
  options.cache = &cache;
  const auto original_jobs = expand_jobs(plan);
  ASSERT_EQ(original_jobs.size(), 1u);
  const auto cold = run_sweep(original_jobs, options);
  EXPECT_FALSE(cold[0].from_cache);

  // 2. An edited spec is different work: new key, no stale hit.
  const sim::ModelRegistry edited = registry_with_edit(
      [](sim::GpuSpec& spec) { spec.elements[sim::Element::kL1].latency_cycles += 5.0; });
  SweepPlan edited_plan = plan;
  edited_plan.registry = &edited;
  const auto edited_jobs = expand_jobs(edited_plan);
  ASSERT_EQ(edited_jobs.size(), 1u);
  EXPECT_NE(edited_jobs[0].key(), original_jobs[0].key());
  EXPECT_NE(edited_jobs[0].spec_hash, original_jobs[0].spec_hash);
  const auto after_edit = run_sweep(edited_jobs, options);
  EXPECT_FALSE(after_edit[0].from_cache) << "stale hit for an edited spec";

  // 3. Reverting the edit restores the original key — and the cached result.
  const sim::ModelRegistry reverted = registry_with_edit([](sim::GpuSpec&) {});
  SweepPlan reverted_plan = plan;
  reverted_plan.registry = &reverted;
  const auto reverted_jobs = expand_jobs(reverted_plan);
  EXPECT_EQ(reverted_jobs[0].key(), original_jobs[0].key());
  const auto warm = run_sweep(reverted_jobs, options);
  EXPECT_TRUE(warm[0].from_cache);
  EXPECT_EQ(core::to_json_string(warm[0].report),
            core::to_json_string(cold[0].report));
}

TEST(FleetCache, SalvagesGoodEntriesAroundAMalformedOne) {
  TempFile file("cache_salvage.json");
  const DiscoveryJob job_a = synthetic_job(42);
  const DiscoveryJob job_b = synthetic_job(43);
  {
    ResultCache cache(file.path());
    cache.put(job_a, run_job(job_a));
    cache.put(job_b, run_job(job_b));
    ASSERT_TRUE(cache.save());
  }
  // Corrupt exactly one entry of the saved file (report becomes a string).
  {
    std::ifstream in(file.path());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const json::ParseResult parsed = json::parse(buffer.str());
    ASSERT_TRUE(parsed.ok());
    json::Value doc = *parsed.value;
    json::Array& entries =
        std::find_if(doc.as_object().begin(), doc.as_object().end(),
                     [](auto& member) { return member.first == "entries"; })
            ->second.as_array();
    ASSERT_EQ(entries.size(), 2u);
    entries[0].set("report", "mangled by hand");
    std::ofstream out(file.path());
    out << doc.dump();
  }

  ResultCache salvaged(file.path());
  EXPECT_EQ(salvaged.size(), 1u);
  EXPECT_NE(salvaged.load_error().find("salvaged 1 of 2"), std::string::npos)
      << salvaged.load_error();
  ASSERT_EQ(salvaged.load_issues().size(), 1u);
  EXPECT_EQ(salvaged.load_issues()[0].entry_index, 0u);
  EXPECT_NE(salvaged.load_issues()[0].reason.find("report"),
            std::string::npos);
  // One of the two jobs survived; the other reads as a miss, not a crash.
  EXPECT_EQ(salvaged.get(job_a).has_value() + salvaged.get(job_b).has_value(),
            1);

  // The malformed entry is quarantined next to the file, with its reason.
  std::ifstream quarantine(salvaged.quarantine_path());
  ASSERT_TRUE(quarantine.good());
  std::ostringstream qbuffer;
  qbuffer << quarantine.rdbuf();
  const json::ParseResult qdoc = json::parse(qbuffer.str());
  ASSERT_TRUE(qdoc.ok());
  const json::Value* qentries = qdoc.value->find("entries");
  ASSERT_NE(qentries, nullptr);
  ASSERT_EQ(qentries->as_array().size(), 1u);
  EXPECT_NE(qentries->as_array()[0].find("reason"), nullptr);
  EXPECT_NE(qentries->as_array()[0].find("entry"), nullptr);
}

TEST(FleetCache, SaveIsAtomicAndLeavesNoTempFile) {
  TempFile file("cache_atomic.json");
  ResultCache cache(file.path());
  const DiscoveryJob job = synthetic_job();
  cache.put(job, run_job(job));
  ASSERT_TRUE(cache.save());
  EXPECT_TRUE(std::filesystem::exists(file.path()));
  EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"));
}

TEST(FleetCache, TornWriteFaultLeavesThePreviousFileIntact) {
  TempFile file("cache_torn.json");
  const DiscoveryJob job_a = synthetic_job(42);
  {
    ResultCache cache(file.path());
    cache.put(job_a, run_job(job_a));
    ASSERT_TRUE(cache.save());
  }
  {
    ResultCache cache(file.path());
    cache.put(synthetic_job(43), run_job(synthetic_job(43)));
    fault::FaultRule rule;
    rule.site = fault::kSiteCacheSave;
    rule.kind = FaultKind::kTornWrite;
    fault::FaultPlan plan;
    plan.rules.push_back(rule);
    ScopedFaultPlan armed(std::move(plan));
    EXPECT_FALSE(cache.save());  // the simulated crash is reported
  }
  // The commit never happened: the previous one-entry file is untouched.
  ResultCache reloaded(file.path());
  EXPECT_TRUE(reloaded.load_error().empty());
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_TRUE(reloaded.get(job_a).has_value());
}

TEST(FleetCache, InjectedCorruptionIsSurvivedByTheNextLoad) {
  const FaultKind kinds[] = {FaultKind::kCorruptTruncate,
                             FaultKind::kCorruptBadJson,
                             FaultKind::kCorruptBadEntry};
  for (const FaultKind kind : kinds) {
    TempFile file("cache_injected.json");
    const DiscoveryJob job_a = synthetic_job(42);
    const DiscoveryJob job_b = synthetic_job(43);
    {
      ResultCache cache(file.path());
      cache.put(job_a, run_job(job_a));
      cache.put(job_b, run_job(job_b));
      fault::FaultRule rule;
      rule.site = fault::kSiteCacheSave;
      rule.kind = kind;
      fault::FaultPlan plan;
      plan.rules.push_back(rule);
      ScopedFaultPlan armed(std::move(plan));
      EXPECT_TRUE(cache.save());  // corruption lands after the commit
    }
    ResultCache reloaded(file.path());
    EXPECT_FALSE(reloaded.load_error().empty())
        << fault::fault_kind_name(kind);
    if (kind == FaultKind::kCorruptBadEntry) {
      // Entry-level damage: the other entry salvages.
      EXPECT_EQ(reloaded.size(), 1u);
      EXPECT_TRUE(std::filesystem::exists(reloaded.quarantine_path()));
    } else {
      EXPECT_EQ(reloaded.size(), 0u) << fault::fault_kind_name(kind);
    }
    // Either way the cache heals: rebuild and save cleanly.
    reloaded.put(job_a, run_job(job_a));
    EXPECT_TRUE(reloaded.save());
    ResultCache healed(file.path());
    EXPECT_TRUE(healed.load_error().empty()) << fault::fault_kind_name(kind);
    EXPECT_TRUE(healed.get(job_a).has_value());
  }
}

}  // namespace
}  // namespace mt4g::fleet
