// The perfbench binary: the end-to-end benchmark of mt4g-sim.
//
// Runs one named workload from a single process through the public entry
// point of every layer — sim::Gpu, core::discover, fleet::run_sweep,
// fleet::run_supervised, fleet::ResultCache and fleet::RunJournal — checks
// every output (spec agreement, byte-identical reports across passes, paths
// and processes, cache hits), and prints one JSON result line last on
// stdout. `--trace 0` reports the end-to-end metrics of untraced passes;
// `--trace 1` runs one extra traced pass and reports the per-layer metrics.
// perfbench/README.md defines every workload and metric.
//
// Usage:
//   perfbench --workload registry-parallel|fleet-small
//             --seed N --seconds S --trace 0|1 [--source ID] [--scratch DIR]
//   perfbench --fleet-worker    (worker process of run_supervised)
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/mt4g.hpp"
#include "exec/executor.hpp"
#include "fleet/fleet.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "spec_check.hpp"
#include "stats/descriptive.hpp"
#include "trace_reduce.hpp"

namespace perfbench {
namespace {

namespace core = mt4g::core;
namespace exec = mt4g::exec;
namespace fleet = mt4g::fleet;
namespace obs = mt4g::obs;
namespace sim = mt4g::sim;

/// Seeds per registry run: --seed and the seeds kSeedStride, 2 x kSeedStride,
/// ... above it, so that runs with different --seed share no job. Each
/// timed pass takes the next seed, and each model's median over the passes
/// also evens out how much work its seeds happen to need (simulated cycles
/// of one model differ by up to a fifth from seed to seed).
constexpr std::size_t kRegistrySeeds = 3;
constexpr std::uint64_t kSeedStride = 1'000'003;
/// Timed fleet-small rounds per run at least; a round takes about 5 s.
constexpr std::size_t kMinRounds = 3;
/// setup_s is the median of set-up samples taken after every discovery of
/// the timed registry passes, or after every cached phase of the timed
/// fleet-small rounds. Spread over the whole run, they see the same host as
/// the other metrics: set-up taken in one burst at start-up moved by a
/// quarter from run to run, as allocation-heavy work drifts by up to 2x
/// from second to second on a shared host. A fleet-small set-up takes
/// ~20 us, so one of its samples is the mean of this many.
constexpr int kFleetSetupsPerSample = 50;
/// Cached-phase repetitions after each fleet-small procs phase.
constexpr int kCachedReps = 20;

/// fleet-small: small models whose per-job coordination cost is a visible
/// share, with MI300X (no CU-sharing plan) and TestGPU-AMD (8 CUs) keeping
/// the O(n^2) CU-sharing stage nearly idle.
const std::vector<std::string> kFleetModels = {"TestGPU-NV", "TestGPU-AMD",
                                               "T1000", "P6000", "MI300X"};
constexpr std::uint32_t kFleetSeeds = 20;  // 5 models x 20 seeds = 100 jobs

/// Stage groups of pipeline.stage_s / pipeline.stage_cycles: the three
/// stages that dominate registry wall time, and everything else.
const std::vector<std::string> kStageGroups = {"L2.segment", "SL1D.cu_sharing",
                                               "L2.line"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string source = "unknown";
  std::string scratch = ".";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return std::nullopt;
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--source") {
        args.source = value;
      } else if (flag == "--scratch") {
        args.scratch = value;
      } else {
        return std::nullopt;
      }
    }
  } catch (const std::exception&) {
    return std::nullopt;
  }
  const bool known =
      args.workload == "registry-parallel" || args.workload == "fleet-small";
  if (!known || !have_seed || !have_trace || !(args.seconds > 0.0)) {
    return std::nullopt;
  }
  return args;
}

/// Report bytes for the determinism checks. The opt-in wall block (filled
/// while obs::Metrics is armed) holds host timings, so it is left out.
std::string report_bytes(core::TopologyReport report) {
  report.wall = core::WallMetricsReport{};
  return core::to_json_string(report);
}

/// State of one benchmark run: operation counts, spec agreement, metrics.
class Run {
 public:
  Run(Args args, std::string self_exe)
      : args_(std::move(args)), self_exe_(std::move(self_exe)) {}

  const Args& args() const { return args_; }
  unsigned nproc() const { return nproc_; }
  std::vector<std::string> worker_argv() const {
    return {self_exe_, "--fleet-worker"};
  }
  std::string scratch_file(const std::string& name) const {
    return args_.scratch + "/" + name;
  }

  /// Counts one operation; a failed one is logged to stderr.
  void attempt(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 20) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }

  /// Compares @p report with the spec of the GPU it describes.
  void check_spec(const core::TopologyReport& report,
                  const sim::GpuSpec& spec) {
    const SpecCheck check = check_against_spec(report, spec);
    for (const std::string& detail : check.details) {
      std::fprintf(stderr, "SPEC MISMATCH: %s\n", detail.c_str());
    }
    spec_.merge(check);
  }

  /// Checks @p bytes against the reference slot @p index, recording the
  /// first occurrence as the reference.
  void check_identical(std::vector<std::string>& reference, std::size_t index,
                       bool ok, const std::string& bytes,
                       const std::string& what) {
    if (reference[index].empty() && ok) reference[index] = bytes;
    attempt(ok && bytes == reference[index], what);
  }

  std::vector<Metric>& metrics() { return metrics_; }
  const SpecCheck& spec() const { return spec_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  Args args_;
  std::string self_exe_;
  unsigned nproc_ = usable_cpus();
  std::vector<Metric> metrics_;
  SpecCheck spec_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The traced section of a traced run: arms both obs sinks and snapshots
/// the executor counters; finish() returns the spans.
class TracedSection {
 public:
  TracedSection() : exec_before_(exec::shared_executor().stats()) {
    obs::Metrics::instance().reset();
    obs::Metrics::instance().enable();
    obs::Tracer::instance().start();
  }
  std::vector<obs::TraceEvent> finish() {
    obs::Tracer::instance().stop();
    obs::Metrics::instance().disable();
    exec_after_ = exec::shared_executor().stats();
    return obs::Tracer::instance().events();
  }
  const exec::ExecutorStats& before() const { return exec_before_; }
  const exec::ExecutorStats& after() const { return exec_after_; }

 private:
  exec::ExecutorStats exec_before_;
  exec::ExecutorStats exec_after_;
};

// --- Per-layer metrics of a traced pass --------------------------------------

void add_trace_layers(std::vector<Metric>& m,
                      const std::vector<obs::TraceEvent>& events,
                      const std::vector<core::TopologyReport>& reports,
                      const TracedSection& section) {
  const auto spans = reduce_spans(events);
  const auto span = [&](const std::string& name) {
    const auto found = spans.find(name);
    return found == spans.end() ? SpanTotals{} : found->second;
  };

  std::uint64_t memo_hits = 0;
  std::uint64_t chases = 0;
  std::uint64_t stages = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t critical_cycles = 0;
  double simulated_s = 0.0;
  std::map<std::string, std::uint64_t> group_cycles;
  for (const core::TopologyReport& report : reports) {
    memo_hits += report.chase_memo_hits;
    chases += report.chase_memo_misses;
    stages += report.stage_cycles.size();
    total_cycles += report.total_cycles;
    critical_cycles += report.critical_path_cycles;
    simulated_s += report.simulated_seconds;
    for (const core::StageCycleReport& stage : report.stage_cycles) {
      const bool grouped =
          std::find(kStageGroups.begin(), kStageGroups.end(), stage.stage) !=
          kStageGroups.end();
      group_cycles[grouped ? stage.stage : "other"] += stage.cycles;
    }
  }

  m.push_back({"runtime.chases", static_cast<double>(chases), "count"});
  m.push_back({"runtime.memo_hit_rate",
               memo_hits + chases > 0
                   ? static_cast<double>(memo_hits) /
                         static_cast<double>(memo_hits + chases)
                   : 0.0,
               "fraction"});
  m.push_back({"runtime.chase_run_s", span("chase.run").total_s, "s"});
  m.push_back({"runtime.batch_self_s", span("chase.batch").self_s, "s"});
  m.push_back({"runtime.forks",
               static_cast<double>(span("replica.fork").count), "count"});
  m.push_back({"runtime.fork_s", span("replica.fork").total_s, "s"});
  m.push_back({"runtime.resets",
               static_cast<double>(span("replica.reset").count), "count"});
  m.push_back({"runtime.reset_s", span("replica.reset").total_s, "s"});

  double grouped_s = 0.0;
  for (const std::string& group : kStageGroups) {
    const double seconds = span("stage:" + group).total_s;
    grouped_s += seconds;
    m.push_back({"pipeline.stage_s." + group, seconds, "s"});
    m.push_back({"pipeline.stage_cycles." + group,
                 static_cast<double>(group_cycles[group]), "cycles"});
  }
  m.push_back({"pipeline.stage_s.other",
               sum_prefix(spans, "stage:").total_s - grouped_s, "s"});
  m.push_back({"pipeline.stage_cycles.other",
               static_cast<double>(group_cycles["other"]), "cycles"});
  m.push_back(
      {"pipeline.wait_s", sum_prefix(spans, "discovery:").self_s, "s"});
  m.push_back({"pipeline.stages", static_cast<double>(stages), "count"});
  m.push_back(
      {"pipeline.total_cycles", static_cast<double>(total_cycles), "cycles"});
  m.push_back({"pipeline.critical_path_cycles",
               static_cast<double>(critical_cycles), "cycles"});
  m.push_back({"pipeline.simulated_s", simulated_s, "s"});

  const exec::ExecutorStats& a = section.before();
  const exec::ExecutorStats& b = section.after();
  const std::uint64_t tasks = b.tasks - a.tasks;
  m.push_back({"exec.tasks", static_cast<double>(tasks), "count"});
  m.push_back({"exec.tasks_failed",
               static_cast<double>(b.tasks_failed - a.tasks_failed), "count"});
  m.push_back({"exec.queue_wait_s",
               static_cast<double>(b.queue_wait_ns - a.queue_wait_ns) * 1e-9,
               "s"});
  m.push_back({"exec.caller_share",
               tasks > 0
                   ? static_cast<double>(b.caller_tasks - a.caller_tasks) /
                         static_cast<double>(tasks)
                   : 0.0,
               "fraction"});

  m.push_back(
      {"obs.trace_events", static_cast<double>(events.size()), "count"});
}

/// pipeline.discover_s.<model> for every registry model; models the
/// workload does not run read 0.
void add_model_seconds(std::vector<Metric>& m,
                       const std::map<std::string, double>& seconds) {
  for (const std::string& name : sim::registry_all_names()) {
    const auto found = seconds.find(name);
    m.push_back({"pipeline.discover_s." + name,
                 found == seconds.end() ? 0.0 : found->second, "s"});
  }
}

/// fleet.job_p50_s, fleet.job_p90_s and fleet.overhead_ms_per_job.procs
/// from one supervised phase.
void add_procs_layers(std::vector<Metric>& m,
                      const std::vector<fleet::JobResult>& results,
                      double wall_s, unsigned procs) {
  std::vector<double> job_s;
  double sum = 0.0;
  for (const fleet::JobResult& result : results) {
    job_s.push_back(result.wall_seconds);
    sum += result.wall_seconds;
  }
  std::sort(job_s.begin(), job_s.end());
  m.push_back({"fleet.job_p50_s", mt4g::stats::percentile(job_s, 50.0), "s"});
  m.push_back({"fleet.job_p90_s", mt4g::stats::percentile(job_s, 90.0), "s"});
  m.push_back({"fleet.overhead_ms_per_job.procs",
               (wall_s * procs - sum) * 1e3 /
                   static_cast<double>(results.size()),
               "ms"});
}

// --- Fleet phases ------------------------------------------------------------

/// Counts each job of a phase as one operation: it must succeed (and, when
/// @p need_cache_hit, come from the cache) with the reference report bytes.
void check_phase(Run& run, const char* phase,
                 const std::vector<fleet::DiscoveryJob>& jobs,
                 const std::vector<fleet::JobResult>& results,
                 std::vector<std::string>& reference, bool need_cache_hit) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const fleet::JobResult& result = results[i];
    const bool ok = result.ok && (result.from_cache || !need_cache_hit);
    run.check_identical(reference, i, ok,
                        result.ok ? report_bytes(result.report) : "",
                        std::string(phase) + " " + jobs[i].key() + " " +
                            (result.ok ? "" : result.error));
  }
}

/// Cold, in-process: run_sweep over nproc workers, no cache. The first
/// run of a job list also spec-checks every report.
double threads_phase(Run& run, const std::vector<fleet::DiscoveryJob>& jobs,
                     std::vector<std::string>& reference,
                     std::vector<fleet::JobResult>& results) {
  const bool first = reference[0].empty();
  fleet::SchedulerOptions options;
  options.workers = run.nproc();
  const auto start = Clock::now();
  {
    const obs::SpanGuard span("bench.fleet.threads");
    results = fleet::run_sweep(jobs, options);
  }
  const double wall = seconds_since(start);
  for (std::size_t i = 0; first && i < jobs.size(); ++i) {
    if (results[i].ok) run.check_spec(results[i].report, *jobs[i].spec);
  }
  check_phase(run, "threads", jobs, results, reference, false);
  return wall;
}

/// Cold, over nproc supervised worker processes, filling a fresh cache file.
double procs_phase(Run& run, const std::vector<fleet::DiscoveryJob>& jobs,
                   std::vector<std::string>& reference,
                   const std::string& cache_path,
                   std::vector<fleet::JobResult>& results) {
  std::filesystem::remove(cache_path);
  fleet::SupervisorOptions options;
  options.procs = run.nproc();
  options.worker_argv = run.worker_argv();
  const auto start = Clock::now();
  {
    const obs::SpanGuard span("bench.fleet.procs");
    fleet::ResultCache cache(cache_path);
    options.cache = &cache;
    results = fleet::run_supervised(jobs, options);
    if (!cache.save()) {
      std::fprintf(stderr, "perfbench: saving %s failed\n",
                   cache_path.c_str());
    }
  }
  const double wall = seconds_since(start);
  check_phase(run, "procs", jobs, results, reference, false);
  return wall;
}

/// Answers every job from the cache file procs_phase wrote, on one worker:
/// a hit is a parse and a copy, and fanning such jobs out across threads
/// measures thread wake-ups on a busy host rather than the cache.
double cached_phase(Run& run, const std::vector<fleet::DiscoveryJob>& jobs,
                    std::vector<std::string>& reference,
                    const std::string& cache_path) {
  fleet::SchedulerOptions options;
  options.workers = 1;
  const auto start = Clock::now();
  std::vector<fleet::JobResult> results;
  {
    const obs::SpanGuard span("bench.fleet.cached");
    fleet::ResultCache cache(cache_path);
    options.cache = &cache;
    results = fleet::run_sweep(jobs, options);
  }
  const double wall = seconds_since(start);
  check_phase(run, "cached", jobs, results, reference, true);
  return wall;
}

// --- registry-parallel -------------------------------------------------------

struct Pass {
  double discover_s = 0.0;  ///< summed over the core::discover calls
  std::map<std::string, double> model_s;
  std::vector<core::TopologyReport> reports;
};

/// The 14 registry jobs at one seed, with their reference report bytes
/// (set by the first report of each job).
struct SeedJobs {
  std::uint64_t seed = 0;
  std::vector<fleet::DiscoveryJob> jobs;
  std::vector<std::string> reference;
};

/// One set-up of the registry workloads: registry lookup plus sim::Gpu
/// construction of every model, in seconds.
double registry_setup(const std::vector<std::string>& names,
                      std::uint64_t seed) {
  const sim::ModelRegistry& registry = sim::default_registry();
  double seconds = 0.0;
  for (const std::string& name : names) {
    std::optional<sim::Gpu> gpu;
    const auto start = Clock::now();
    gpu.emplace(registry.get(name), seed);
    seconds += seconds_since(start);
  }
  return seconds;
}

/// One closed-loop pass over @p seed's jobs: each model's Gpu is built just
/// before its core::discover call, and the next call starts when this one
/// returns. The first pass of a seed also spec-checks its reports.
/// @p after_discover, when set, runs after each discovery is checked.
Pass registry_pass(Run& run, const std::vector<const sim::GpuSpec*>& specs,
                   const core::DiscoverOptions& options, SeedJobs& seed,
                   const std::function<void()>& after_discover = nullptr) {
  const bool first = seed.reference[0].empty();
  Pass pass;
  const obs::SpanGuard pass_span("bench.pass");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const sim::GpuSpec& spec = *specs[i];
    core::TopologyReport report;
    bool ok = true;
    std::string error;
    try {
      sim::Gpu gpu(spec, seed.seed);
      const obs::SpanGuard span("bench.discover:", spec.name);
      const auto start = Clock::now();
      report = core::discover(gpu, options);
      const double seconds = seconds_since(start);
      pass.discover_s += seconds;
      pass.model_s[spec.name] = seconds;
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    }
    if (first && ok) run.check_spec(report, spec);
    run.check_identical(seed.reference, i, ok, ok ? report_bytes(report) : "",
                        "discover " + seed.jobs[i].key() + " " + error);
    pass.reports.push_back(std::move(report));
    if (after_discover) after_discover();
  }
  return pass;
}

void registry_workload(Run& run) {
  const std::vector<std::string> names = sim::registry_all_names();
  std::vector<Metric>& m = run.metrics();
  std::vector<const sim::GpuSpec*> specs;
  for (const std::string& name : names) {
    specs.push_back(&sim::default_registry().get(name));
  }

  core::DiscoverOptions options;
  options.bench_threads = run.nproc();
  options.sweep_threads = run.nproc();
  // The traced run stays on --seed itself.
  std::vector<SeedJobs> seeds(run.args().trace ? 1 : kRegistrySeeds);
  for (std::size_t j = 0; j < seeds.size(); ++j) {
    fleet::SweepPlan plan;
    plan.models = names;
    plan.first_seed = run.args().seed + j * kSeedStride;
    plan.include_mig = false;
    seeds[j].seed = plan.first_seed;
    seeds[j].jobs = fleet::expand_jobs(plan);
    seeds[j].reference.resize(specs.size());
  }
  // The first pass in a process runs slower (allocator growth, cold page
  // tables), so it only provides reference reports, a spec check and the
  // timed window's cache file.
  const Pass warmup = registry_pass(run, specs, options, seeds[0]);

  // Each seed's jobs through the fleet once: serial discoveries in worker
  // processes (the byte-identity reference for the parallel passes), then
  // answered from the cache file they wrote.
  const std::string cache_path = run.scratch_file("registry-cache.json");
  std::vector<fleet::JobResult> procs_results;
  std::vector<double> procs_s;
  const auto fleet_phases = [&](SeedJobs& seed) {
    std::vector<fleet::JobResult> results;
    procs_s.push_back(
        procs_phase(run, seed.jobs, seed.reference, cache_path, results));
    if (procs_results.empty()) procs_results = std::move(results);
    cached_phase(run, seed.jobs, seed.reference, cache_path);
  };

  if (!run.args().trace) {
    // A cache file of the warm-up reports lets the timed window answer the
    // jobs from the cache after every discovery, so that fleet_cached_s,
    // like setup_s, is sampled over the whole window.
    const std::string warm_cache = run.scratch_file("registry-warm.json");
    {
      fleet::ResultCache cache(warm_cache);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (!seeds[0].reference[i].empty()) {
          cache.put(seeds[0].jobs[i], warmup.reports[i]);
        }
      }
      if (!cache.save()) {
        std::fprintf(stderr, "perfbench: saving %s failed\n",
                     warm_cache.c_str());
      }
    }
    // Per-model medians over the passes, summed: a burst of host noise
    // inside one pass then only costs the models it hit that one sample.
    std::map<std::string, std::vector<double>> model_s;
    std::vector<double> setup_s;
    // One fleet_cached_s sample per pass: the mean of its cached phases.
    // Single cached phases fall into a fast mode and one twice as slow as
    // other tenants load the memory system, and a median over such a mix
    // jumps between the modes from run to run.
    std::vector<double> cached_s;
    double pass_cached_s = 0.0;
    const auto sample = [&] {
      setup_s.push_back(registry_setup(names, seeds[0].seed));
      pass_cached_s += cached_phase(run, seeds[0].jobs, seeds[0].reference,
                                    warm_cache);
    };
    std::size_t passes = 0;
    const auto window = Clock::now();
    while (passes < seeds.size() ||
           seconds_since(window) < run.args().seconds) {
      SeedJobs& seed = seeds[passes % seeds.size()];
      pass_cached_s = 0.0;
      const Pass pass = registry_pass(run, specs, options, seed, sample);
      cached_s.push_back(pass_cached_s / static_cast<double>(specs.size()));
      for (const auto& [model, seconds] : pass.model_s) {
        model_s[model].push_back(seconds);
      }
      // A seed's fleet phases follow its first timed pass rather than the
      // window, which spreads the timed passes over most of the run: the
      // host's speed drifts over tens of seconds, and samples further apart
      // average more of that drift.
      if (passes < seeds.size()) fleet_phases(seed);
      std::fprintf(stderr, "pass %zu: discover %.3f s\n", ++passes,
                   pass.discover_s);
    }
    double discover_s = 0.0;
    for (const auto& [model, seconds] : model_s) {
      discover_s += median(seconds);
    }
    m.push_back({"setup_s", median(setup_s), "s"});
    m.push_back({"discover_s", discover_s, "s"});
    m.push_back({"fleet_procs_s", median(procs_s), "s"});
    m.push_back({"fleet_cached_s", median(cached_s), "s"});
    return;
  }

  // Overhead is measured against the untraced passes just before and after
  // the traced one, never against the process's first pass; their mean
  // cancels a steady drift of pass times through the run.
  const Pass before = registry_pass(run, specs, options, seeds[0]);
  TracedSection section;
  const Pass traced = registry_pass(run, specs, options, seeds[0]);
  const auto events = section.finish();
  const Pass after = registry_pass(run, specs, options, seeds[0]);
  add_trace_layers(m, events, traced.reports, section);
  m.push_back({"obs.trace_overhead_frac",
               2.0 * traced.discover_s /
                       (before.discover_s + after.discover_s) -
                   1.0,
               "fraction"});
  add_model_seconds(m, before.model_s);
  // No in-process fleet phase runs on the registry job list.
  m.push_back({"fleet.overhead_ms_per_job.threads", 0.0, "ms"});
  fleet_phases(seeds[0]);
  add_procs_layers(m, procs_results, procs_s.front(), run.nproc());
  probe_fleet(m, procs_results, cache_path, run.args().scratch,
              run.worker_argv());
  probe_sim(m);
}

// --- fleet-small -------------------------------------------------------------

struct Round {
  double threads_s = 0.0;
  double procs_s = 0.0;
  std::vector<double> cached_s;
  std::vector<fleet::JobResult> threads;
  std::vector<fleet::JobResult> procs;
  /// Traced rounds only: the section around the threads phase and its spans.
  std::optional<TracedSection> section;
  std::vector<obs::TraceEvent> events;
};

/// One fleet-small set-up — job expansion plus opening a fresh result
/// cache — in seconds: the mean of kFleetSetupsPerSample back to back.
double fleet_setup(const Run& run, const fleet::SweepPlan& plan) {
  const std::string cache_path = run.scratch_file("setup-cache.json");
  const auto start = Clock::now();
  for (int rep = 0; rep < kFleetSetupsPerSample; ++rep) {
    const auto jobs = fleet::expand_jobs(plan);
    const fleet::ResultCache cache(cache_path);
  }
  return seconds_since(start) / kFleetSetupsPerSample;
}

/// One round: cold in-process, cold over worker processes into a fresh
/// cache file, then answered from that file. A traced round traces the
/// in-process phase only: worker processes never arm the obs sinks.
/// @p after_cached, when set, runs after each cached phase.
Round fleet_round(Run& run, const std::vector<fleet::DiscoveryJob>& jobs,
                  std::vector<std::string>& reference, bool traced = false,
                  const std::function<void()>& after_cached = nullptr) {
  Round round;
  const std::string cache_path = run.scratch_file("fleet-cache.json");
  if (traced) round.section.emplace();
  round.threads_s = threads_phase(run, jobs, reference, round.threads);
  if (traced) round.events = round.section->finish();
  round.procs_s = procs_phase(run, jobs, reference, cache_path, round.procs);
  for (int rep = 0; rep < kCachedReps; ++rep) {
    round.cached_s.push_back(cached_phase(run, jobs, reference, cache_path));
    if (after_cached) after_cached();
  }
  return round;
}

void fleet_workload(Run& run) {
  std::vector<Metric>& m = run.metrics();
  fleet::SweepPlan plan;
  plan.models = kFleetModels;
  plan.seed_count = kFleetSeeds;
  plan.first_seed = run.args().seed;
  plan.include_mig = false;

  const std::vector<fleet::DiscoveryJob> jobs = fleet::expand_jobs(plan);
  std::vector<std::string> reference(jobs.size());
  fleet_round(run, jobs, reference);  // warm-up: references + spec check

  if (!run.args().trace) {
    std::vector<double> threads_s;
    std::vector<double> procs_s;
    std::vector<double> cached_s;
    std::vector<double> setup_s;
    const auto sample_setup = [&] {
      setup_s.push_back(fleet_setup(run, plan));
    };
    const auto window = Clock::now();
    while (threads_s.size() < kMinRounds ||
           seconds_since(window) < run.args().seconds) {
      const Round round =
          fleet_round(run, jobs, reference, /*traced=*/false, sample_setup);
      std::fprintf(stderr, "round %zu: threads %.3f s, procs %.3f s\n",
                   threads_s.size() + 1, round.threads_s, round.procs_s);
      threads_s.push_back(round.threads_s);
      procs_s.push_back(round.procs_s);
      cached_s.insert(cached_s.end(), round.cached_s.begin(),
                      round.cached_s.end());
    }
    m.push_back({"setup_s", median(setup_s), "s"});
    m.push_back({"discover_s", median(threads_s), "s"});
    m.push_back({"fleet_procs_s", median(procs_s), "s"});
    m.push_back({"fleet_cached_s", median(cached_s), "s"});
    return;
  }

  // As on the registry workloads, the traced round sits between two
  // untraced ones.
  const Round untraced = fleet_round(run, jobs, reference);
  const Round traced = fleet_round(run, jobs, reference, /*traced=*/true);
  const Round after = fleet_round(run, jobs, reference);
  std::vector<core::TopologyReport> reports;
  for (const fleet::JobResult& result : traced.threads) {
    reports.push_back(result.report);
  }
  add_trace_layers(m, traced.events, reports, *traced.section);
  m.push_back(
      {"obs.trace_overhead_frac",
       2.0 * traced.threads_s / (untraced.threads_s + after.threads_s) - 1.0,
       "fraction"});

  std::map<std::string, std::vector<double>> per_model;
  double job_sum = 0.0;
  for (const fleet::JobResult& result : untraced.threads) {
    per_model[result.job.model].push_back(result.wall_seconds);
    job_sum += result.wall_seconds;
  }
  std::map<std::string, double> model_s;
  for (const auto& [model, seconds] : per_model) {
    model_s[model] = median(seconds);
  }
  add_model_seconds(m, model_s);
  m.push_back({"fleet.overhead_ms_per_job.threads",
               (untraced.threads_s * run.nproc() - job_sum) * 1e3 /
                   static_cast<double>(jobs.size()),
               "ms"});
  add_procs_layers(m, untraced.procs, untraced.procs_s, run.nproc());
  probe_fleet(m, untraced.procs, run.scratch_file("fleet-cache.json"),
              run.args().scratch, run.worker_argv());
  probe_sim(m);
}

int run_benchmark(const Args& args, const std::string& self_exe) {
  std::filesystem::create_directories(args.scratch);
  Run run(args, self_exe);
  const HostInfo host = probe_host(args.source);
  std::printf("%s\n", host_line(host).c_str());
  std::fflush(stdout);

  if (args.workload == "fleet-small") {
    fleet_workload(run);
  } else {
    registry_workload(run);
  }

  std::vector<Metric>& m = run.metrics();
  const SpecCheck& spec = run.spec();
  if (!args.trace) {
    m.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
    const double checked =
        static_cast<double>(spec.attributes + spec.cu_peer_lists);
    m.push_back({"spec_agreement",
                 checked > 0.0
                     ? 1.0 - static_cast<double>(spec.mismatches) / checked
                     : 0.0,
                 "fraction"});
  } else {
    m.push_back({"check.spec_mismatches",
                 static_cast<double>(spec.mismatches), "count"});
    m.push_back({"check.attributes_checked",
                 static_cast<double>(spec.attributes), "count"});
    m.push_back({"check.cu_peer_lists",
                 static_cast<double>(spec.cu_peer_lists), "count"});
    m.push_back({"host.nproc", static_cast<double>(host.nproc), "count"});
    m.push_back({"host.hardware_concurrency",
                 static_cast<double>(host.hardware_concurrency), "count"});
    m.push_back({"host.parallelism", host.parallelism, "x"});
  }
  const bool correct = run.failed() == 0 && spec.mismatches == 0;
  std::printf("%s\n",
              result_line(correct, run.attempted(), run.failed(), m).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--fleet-worker") {
    return mt4g::fleet::run_worker_loop(std::cin, std::cout);
  }
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "registry-parallel|fleet-small --seed N --seconds S "
                 "--trace 0|1 [--source ID] [--scratch DIR]\n");
    return 2;
  }
  try {
    return perfbench::run_benchmark(
        *args, std::filesystem::read_symlink("/proc/self/exe").string());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
