// Discovery hot-path bench: per-model serial discovery timings through the
// compiled-AccessPath engine vs the per-load reference engine, plus the
// stage-graph comparison — serial (bench_threads=1, sweep_threads=1) vs
// parallel (bench_threads=M, sweep_threads=N) discovery — with the
// golden-equivalence checks that all engines produce byte-identical reports
// at a fixed seed. Each serial and parallel compiled discovery runs
// kTimedRuns times: its time is the median run's, and every run's report
// must match. The reference engine runs once. Writes BENCH_discovery.json,
// the repo's perf trajectory record for the discovery hot path, including
// per-model widening and chase counts, the stage-graph critical path, each
// stage's cycles and its wall time in the serial and in the parallel median
// run, the caller share of each model's parallel runs (the fraction of
// their shared-executor tasks that ran on the thread that submitted them:
// near 1 means their chase batches found no other thread to run on, and
// exactly 1 that the runs fell back to one thread whatever their thread
// knobs said), and the host description — so the next algorithmic target
// stays visible and the parallel-speedup column is interpretable (a
// single-core container measures ~1.0 by construction).
//
// Usage: discovery_hotpath [options] [MODEL...] (default: every registry
// model); --help lists the options.
//
// Exits 1 when any model's reports diverge between engines or its stage
// cycles do not sum to its total_cycles, and 2 when a time budget is
// exceeded or the command line is malformed, so correctness or perf
// regressions in the hot path fail loudly instead of skewing results
// silently.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/output/json_output.hpp"
#include "exec/executor.hpp"
#include "fleet/fleet.hpp"
#include "runtime/kernels.hpp"
#include "sim/registry.hpp"

namespace {

using namespace mt4g;
using Clock = std::chrono::steady_clock;

/// Runs per compiled discovery timing: single runs of 1-60 ms swing too
/// far to compare serial with parallel.
constexpr int kTimedRuns = 5;

struct ModelResult {
  std::string model;
  double serial_s = 0.0;     ///< compiled engine, all thread knobs = 1
  double parallel_s = 0.0;   ///< compiled engine, bench/sweep_threads = M/N
  double reference_s = 0.0;  ///< reference engine, all thread knobs = 1
  /// Share of the parallel run's shared-executor tasks run by the thread
  /// that submitted them (slot 0); 1 when nothing fanned out at all.
  double caller_share = 1.0;
  bool identical = false;    ///< every run of every engine agrees bytewise
  std::uint32_t widenings = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t stage_cycles_sum = 0;  ///< must equal total_cycles
  std::uint64_t critical_path_cycles = 0;
  std::uint64_t chases = 0;
};

/// One discovery run: its wall time, its report and the report's JSON.
struct TimedRun {
  double seconds = 0.0;
  core::TopologyReport report;
  std::string json;
};

/// Runs @p model's discovery @p runs times and returns the run of median
/// wall time; its json is empty when the runs' reports differ.
TimedRun timed_discovery(const std::string& model,
                         runtime::PChaseEngine engine,
                         std::uint32_t bench_threads,
                         std::uint32_t sweep_threads, int runs) {
  fleet::DiscoveryJob job;
  job.model = model;
  job.options.bench_threads = bench_threads;
  job.options.sweep_threads = sweep_threads;
  runtime::ScopedPChaseEngine scope(engine);
  std::vector<TimedRun> all(static_cast<std::size_t>(runs));
  for (TimedRun& run : all) {
    const auto start = Clock::now();
    run.report = fleet::run_job(job);
    run.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    run.json = core::to_json_string(run.report);
  }
  const bool repeatable =
      std::all_of(all.begin(), all.end(), [&](const TimedRun& run) {
        return run.json == all.front().json;
      });
  std::sort(all.begin(), all.end(), [](const TimedRun& a, const TimedRun& b) {
    return a.seconds < b.seconds;
  });
  TimedRun median = std::move(all[all.size() / 2]);
  if (!repeatable) median.json.clear();
  return median;
}

/// First "model name" line of /proc/cpuinfo, or "unknown" — makes the
/// parallel-speedup numbers interpretable without knowing the bench host.
std::string host_description() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return trim(line.substr(colon + 1));
      }
    }
  }
  return "unknown";
}

/// Per-stage totals across all serial discoveries: simulated cycles next to
/// host wall time. A stage whose wall share dwarfs its cycle share is
/// host-overhead-bound (fork/reset/bookkeeping), not simulation-bound — the
/// divergence column points at the next host-side optimisation target.
struct StageAggregate {
  std::uint64_t cycles = 0;
  double wall_seconds = 0.0;
  double reset_seconds = 0.0;  ///< chase replica reset share of wall
  /// Wall time of the stage in the parallel run, where run-ahead and
  /// helping shorten it; the fields above come from the serial run.
  double parallel_wall_seconds = 0.0;
};

/// UTC timestamp like 2026-08-07T12:34:56Z for the BENCH meta block.
std::string iso_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buffer[32];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buffer;
}

/// Short git SHA of the working tree, or "unknown" outside a checkout.
std::string git_sha() {
  FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (!pipe) return "unknown";
  char buffer[64] = {0};
  std::string sha;
  if (std::fgets(buffer, sizeof buffer, pipe)) sha = trim(buffer);
  pclose(pipe);
  return sha.empty() ? "unknown" : sha;
}

}  // namespace

int main(int argc, char** argv) {
  double max_seconds = 0.0;        // 0 = no per-model budget
  double max_total_seconds = 0.0;  // 0 = no total budget
  std::uint32_t sweep_threads = std::max(1u, std::thread::hardware_concurrency());
  std::uint32_t bench_threads = std::max(1u, std::thread::hardware_concurrency());
  bool skip_reference = false;
  const std::vector<cli::Flag> flags = {
      {{"--max-seconds"}, "N",
       "fail if any serial compiled discovery exceeds N seconds",
       cli::seconds(max_seconds)},
      {{"--max-total-seconds"}, "N",
       "fail if the summed serial discoveries exceed N seconds",
       cli::seconds(max_total_seconds)},
      {{"--sweep-threads"}, "N",
       "parallel chases per benchmark (default: hardware)",
       cli::count(sweep_threads, 1)},
      {{"--bench-threads"}, "N",
       "concurrent stages per discovery (default: hardware)",
       cli::count(bench_threads, 1)},
      {{"--skip-reference"}, "",
       "determinism job: only compare serial vs parallel discovery",
       cli::toggle(skip_reference)},
  };
  cli::FlagParse parsed = cli::parse_flags(flags, argc, argv, SIZE_MAX);
  for (const std::string& model : parsed.positionals) {
    if (!sim::registry_contains(model)) {
      parsed.errors.push_back("unknown model '" + model + "'");
    }
  }
  if (const auto code = cli::help_or_errors(
          parsed.show_help, parsed.errors, "discovery_hotpath",
          "usage: discovery_hotpath [options] [MODEL...]   (default: every "
          "registry model)\n" +
              cli::flag_usage(flags))) {
    return *code;
  }
  std::vector<std::string> models = parsed.positionals;
  if (models.empty()) models = sim::registry_all_names();

  std::vector<ModelResult> results;
  TablePrinter table({"model", "serial [s]", "parallel [s]", "par x",
                      "caller", "reference [s]", "identical",
                      "widen", "chases"});
  bool all_identical = true;
  bool all_attributed = true;
  double total_serial = 0.0;
  std::map<std::string, StageAggregate> stages;

  for (const auto& model : models) {
    ModelResult r;
    r.model = model;
    const TimedRun serial = timed_discovery(
        model, runtime::PChaseEngine::kCompiled, 1, 1, kTimedRuns);
    const exec::ExecutorStats exec_before = exec::shared_executor().stats();
    const TimedRun parallel =
        timed_discovery(model, runtime::PChaseEngine::kCompiled,
                        bench_threads, sweep_threads, kTimedRuns);
    const exec::ExecutorStats exec_after = exec::shared_executor().stats();
    const core::TopologyReport& report = serial.report;
    r.serial_s = serial.seconds;
    r.parallel_s = parallel.seconds;
    const std::uint64_t tasks = exec_after.tasks - exec_before.tasks;
    if (tasks > 0) {
      r.caller_share =
          static_cast<double>(exec_after.caller_tasks -
                              exec_before.caller_tasks) /
          static_cast<double>(tasks);
    }
    r.identical = !serial.json.empty() && serial.json == parallel.json;
    if (!skip_reference) {
      const TimedRun reference =
          timed_discovery(model, runtime::PChaseEngine::kReference, 1, 1, 1);
      r.reference_s = reference.seconds;
      r.identical = r.identical && serial.json == reference.json;
    }
    r.widenings = report.sweep_widenings;
    r.total_cycles = report.total_cycles;
    r.critical_path_cycles = report.critical_path_cycles;
    r.chases = report.chase_memo_misses;
    for (const auto& stage : report.stage_cycles) {
      r.stage_cycles_sum += stage.cycles;
      StageAggregate& aggregate = stages[stage.stage];
      aggregate.cycles += stage.cycles;
      aggregate.wall_seconds += stage.wall_seconds;
      aggregate.reset_seconds += stage.reset_seconds;
    }
    for (const auto& stage : parallel.report.stage_cycles) {
      stages[stage.stage].parallel_wall_seconds += stage.wall_seconds;
    }
    all_identical = all_identical && r.identical;
    if (r.stage_cycles_sum != r.total_cycles) {
      std::fprintf(stderr,
                   "%s: stage cycles sum to %llu, total_cycles is %llu\n",
                   model.c_str(),
                   static_cast<unsigned long long>(r.stage_cycles_sum),
                   static_cast<unsigned long long>(r.total_cycles));
      all_attributed = false;
    }
    total_serial += r.serial_s;
    results.push_back(r);

    char serial_s[32], parallel_s[32], speedup[32], caller[16],
        reference_s[32], widen[16], chases[24];
    std::snprintf(serial_s, sizeof serial_s, "%.3f", r.serial_s);
    std::snprintf(parallel_s, sizeof parallel_s, "%.3f", r.parallel_s);
    std::snprintf(speedup, sizeof speedup, "%.2f",
                  r.parallel_s > 0 ? r.serial_s / r.parallel_s : 0.0);
    std::snprintf(caller, sizeof caller, "%.2f", r.caller_share);
    std::snprintf(reference_s, sizeof reference_s, "%.3f", r.reference_s);
    std::snprintf(widen, sizeof widen, "%u", r.widenings);
    std::snprintf(chases, sizeof chases, "%llu",
                  static_cast<unsigned long long>(r.chases));
    table.add_row({model, serial_s, parallel_s, speedup, caller,
                   skip_reference ? "-" : reference_s,
                   r.identical ? "yes" : "NO", widen, chases});
  }
  std::printf("%s\n", table.str().c_str());
  // The "par x" column compares wall times of threaded runs: with one
  // hardware thread the parallel run degenerates to serial plus scheduling
  // overhead, so the measured speedup carries no signal.
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf(
        "(single-core host, speedup not meaningful: hardware_concurrency=1, "
        "sweep_threads=%u, bench_threads=%u)\n\n",
        sweep_threads, bench_threads);
  }

  // Cycles-vs-wall divergence per stage, aggregated over the serial runs.
  // wall/cyc > 1 means the stage costs more host time than its simulated
  // share explains: host overhead, not simulation, dominates it.
  std::uint64_t stage_cycles_total = 0;
  double stage_wall_total = 0.0;
  for (const auto& [name, aggregate] : stages) {
    stage_cycles_total += aggregate.cycles;
    stage_wall_total += aggregate.wall_seconds;
  }
  std::vector<std::pair<std::string, StageAggregate>> by_wall(stages.begin(),
                                                              stages.end());
  std::sort(by_wall.begin(), by_wall.end(), [](const auto& a, const auto& b) {
    return a.second.wall_seconds > b.second.wall_seconds;
  });
  TablePrinter stage_table({"stage", "wall [s]", "reset [s]", "wall %",
                            "cycles %", "wall/cyc"});
  const std::size_t shown = std::min<std::size_t>(by_wall.size(), 15);
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& [name, aggregate] = by_wall[i];
    const double wall_pct = stage_wall_total > 0
                                ? 100.0 * aggregate.wall_seconds /
                                      stage_wall_total
                                : 0.0;
    const double cycles_pct =
        stage_cycles_total > 0 ? 100.0 * static_cast<double>(aggregate.cycles) /
                                     static_cast<double>(stage_cycles_total)
                               : 0.0;
    char wall_s[32], reset_s[32], wall_p[16], cyc_p[16], divergence[16];
    std::snprintf(wall_s, sizeof wall_s, "%.3f", aggregate.wall_seconds);
    std::snprintf(reset_s, sizeof reset_s, "%.3f", aggregate.reset_seconds);
    std::snprintf(wall_p, sizeof wall_p, "%.1f", wall_pct);
    std::snprintf(cyc_p, sizeof cyc_p, "%.1f", cycles_pct);
    std::snprintf(divergence, sizeof divergence, "%.2f",
                  cycles_pct > 0 ? wall_pct / cycles_pct : 0.0);
    stage_table.add_row({name, wall_s, reset_s, wall_p, cyc_p, divergence});
  }
  if (shown < by_wall.size()) {
    std::printf("top %zu of %zu stages by wall time:\n", shown,
                by_wall.size());
  }
  std::printf("%s\n", stage_table.str().c_str());

  json::Object per_model;
  double slowest_serial = 0.0;
  std::string slowest_model;
  for (const auto& r : results) {
    json::Object entry;
    entry.emplace_back("serial_seconds", r.serial_s);
    entry.emplace_back("parallel_seconds", r.parallel_s);
    entry.emplace_back(
        "parallel_speedup", r.parallel_s > 0 ? r.serial_s / r.parallel_s : 0.0);
    entry.emplace_back("parallel_caller_share", r.caller_share);
    if (!skip_reference) {
      entry.emplace_back("reference_seconds", r.reference_s);
    }
    entry.emplace_back("identical_reports", r.identical);
    entry.emplace_back("widenings", static_cast<std::int64_t>(r.widenings));
    entry.emplace_back("total_cycles",
                       static_cast<std::int64_t>(r.total_cycles));
    entry.emplace_back("critical_path_cycles",
                       static_cast<std::int64_t>(r.critical_path_cycles));
    entry.emplace_back("chases", static_cast<std::int64_t>(r.chases));
    per_model.emplace_back(r.model, json::Value(std::move(entry)));
    if (r.serial_s > slowest_serial) {
      slowest_serial = r.serial_s;
      slowest_model = r.model;
    }
  }
  json::Object host;
  host.emplace_back(
      "hardware_concurrency",
      static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  host.emplace_back("description", host_description());

  // Full per-stage profile (every stage, not just the printed top 15).
  json::Array stage_profile;
  for (const auto& [name, aggregate] : by_wall) {
    json::Object entry;
    entry.emplace_back("stage", name);
    entry.emplace_back("cycles", static_cast<std::int64_t>(aggregate.cycles));
    entry.emplace_back("wall_seconds", aggregate.wall_seconds);
    entry.emplace_back("reset_seconds", aggregate.reset_seconds);
    entry.emplace_back("parallel_wall_seconds",
                       aggregate.parallel_wall_seconds);
    entry.emplace_back("cycle_fraction",
                       stage_cycles_total > 0
                           ? static_cast<double>(aggregate.cycles) /
                                 static_cast<double>(stage_cycles_total)
                           : 0.0);
    entry.emplace_back("wall_fraction",
                       stage_wall_total > 0
                           ? aggregate.wall_seconds / stage_wall_total
                           : 0.0);
    stage_profile.emplace_back(std::move(entry));
  }

  json::Object meta;
  meta.emplace_back("schema_version", static_cast<std::int64_t>(5));
  meta.emplace_back("timed_runs", static_cast<std::int64_t>(kTimedRuns));
  meta.emplace_back("generated_at", iso_utc_now());
  meta.emplace_back("git_sha", git_sha());

  json::Object root;
  root.emplace_back("bench", "discovery_hotpath");
  root.emplace_back("meta", json::Value(std::move(meta)));
  root.emplace_back("sweep_threads", static_cast<std::int64_t>(sweep_threads));
  root.emplace_back("bench_threads", static_cast<std::int64_t>(bench_threads));
  root.emplace_back("host", json::Value(std::move(host)));
  root.emplace_back("models", per_model);
  root.emplace_back("stage_profile", json::Value(std::move(stage_profile)));
  root.emplace_back("total_serial_seconds", total_serial);
  root.emplace_back("slowest_model", slowest_model);
  root.emplace_back("slowest_serial_seconds", slowest_serial);
  root.emplace_back("all_reports_identical", all_identical);
  std::ofstream out("BENCH_discovery.json");
  out << json::Value(std::move(root)).dump() << "\n";
  std::printf(
      "wrote BENCH_discovery.json (total serial: %.3f s, slowest: %s, "
      "%.3f s)\n",
      total_serial, slowest_model.c_str(), slowest_serial);

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: discovery engines disagree on at least one model's "
                 "report (repeated runs, serial vs concurrent stage "
                 "graph%s)\n",
                 skip_reference ? "" : " or compiled vs reference");
    return 1;
  }
  if (!all_attributed) {
    std::fprintf(stderr,
                 "FAIL: at least one model's stage cycles do not sum to its "
                 "total_cycles\n");
    return 1;
  }
  if (max_seconds > 0.0 && slowest_serial > max_seconds) {
    std::fprintf(stderr,
                 "FAIL: slowest serial discovery (%s, %.3f s) exceeds the "
                 "--max-seconds budget of %.1f s\n",
                 slowest_model.c_str(), slowest_serial, max_seconds);
    return 2;
  }
  if (max_total_seconds > 0.0 && total_serial > max_total_seconds) {
    std::fprintf(stderr,
                 "FAIL: total serial discovery (%.3f s) exceeds the "
                 "--max-total-seconds budget of %.1f s\n",
                 total_serial, max_total_seconds);
    return 2;
  }
  return 0;
}
