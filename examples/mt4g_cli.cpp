// The mt4g command-line tool — the reproduction of the paper artifact's
// `./mt4g` binary. Flags follow the artifact description (Appendix A):
//   -g graphs/series, -o raw data, -p markdown, -j JSON file, -q quiet,
// plus substrate-specific selectors (--gpu, --seed, --only, --cache-config).
//
// The `fleet` subcommand drives the discovery orchestrator instead of a
// single run: `mt4g fleet --models all --seeds 3 --workers 8` sweeps the
// whole registry (incl. MIG partitions) in parallel, caches results in a
// JSON file, and writes an aggregated cross-GPU fleet report. With
// `--procs N` the sweep runs across N supervised worker *processes* (crash
// containment; see README "Distributed fleet"), `--journal FILE` logs every
// completed job crash-safely, and `--resume` continues a killed run from its
// journal. The hidden `fleet-worker` entry is the child half of --procs —
// it speaks the line protocol on stdin/stdout and is not for interactive
// use.
//
// The `spec` subcommand manages the data-driven model registry: `export`
// writes every embedded built-in as a canonical specs/*.json file, `check`
// is the CI drift gate between those files and the binary, `validate` and
// `hash` operate on user spec files (see README "Model spec files").
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "core/mt4g.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/gpu.hpp"
#include "sim/registry.hpp"
#include "sim/spec_io.hpp"

namespace {

using namespace mt4g;

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  out.close();  // a full disk or file-size limit surfaces at the flush
  if (!out) {
    std::fprintf(stderr, "mt4g: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Arms the obs layer for a run (--trace / --metrics) and writes the sink
/// files in finish(). Tracing and metrics are independent opt-ins.
class ObsSession {
 public:
  ObsSession(std::string trace_path, std::string metrics_path)
      : trace_path_(std::move(trace_path)),
        metrics_path_(std::move(metrics_path)) {
    if (!trace_path_.empty()) obs::Tracer::instance().start();
    if (!metrics_path_.empty()) {
      obs::Metrics::instance().reset();
      obs::Metrics::instance().enable();
    }
  }

  /// Stops collection and writes the sink files; returns false on I/O error.
  bool finish() {
    bool ok = true;
    if (!trace_path_.empty()) {
      obs::Tracer::instance().stop();
      ok &= write_file(trace_path_,
                       obs::Tracer::instance().chrome_trace_json() + "\n");
    }
    if (!metrics_path_.empty()) {
      obs::Metrics::instance().disable();
      ok &= write_file(metrics_path_, obs::Metrics::instance().prometheus_text());
    }
    return ok;
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

/// ~1 s stderr heartbeat over FleetProgress (fleet --progress). Polls atomics
/// only; stops promptly because the sleep is chopped into 100 ms slices.
class ProgressHeartbeat {
 public:
  explicit ProgressHeartbeat(const fleet::FleetProgress& progress)
      : progress_(progress), start_(std::chrono::steady_clock::now()),
        thread_([this] { run(); }) {}

  ~ProgressHeartbeat() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

 private:
  void run() {
    while (!stop_.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 10 && !stop_.load(std::memory_order_relaxed); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      if (stop_.load(std::memory_order_relaxed)) break;
      beat();
    }
    beat();  // final line reflects the completed sweep
  }

  void beat() {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    std::fprintf(stderr, "fleet: %zu/%zu jobs, %zu cache hits, %.1fs elapsed\n",
                 progress_.done.load(std::memory_order_relaxed),
                 progress_.total.load(std::memory_order_relaxed),
                 progress_.cache_hits.load(std::memory_order_relaxed), elapsed);
  }

  const fleet::FleetProgress& progress_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Builds a custom registry: embedded built-ins, overlaid with --model-dir,
/// then each --model-spec file (last wins). Returns nullopt after printing
/// every load/validation diagnostic. @p spec_names collects the model names
/// the --model-spec files resolved to, in order.
std::optional<sim::ModelRegistry> custom_registry(
    const std::string& model_dir, const std::vector<std::string>& model_specs,
    std::vector<std::string>* spec_names, const char* prog) {
  try {
    sim::ModelRegistry registry = sim::builtin_registry();
    if (!model_dir.empty()) registry.add_directory(model_dir);
    for (const auto& file : model_specs) {
      const std::string name = registry.add_file(file);
      if (spec_names) spec_names->push_back(name);
    }
    registry.freeze();
    return registry;
  } catch (const sim::SpecError& e) {
    for (const auto& diagnostic : e.details()) {
      std::fprintf(stderr, "%s: %s\n", prog, diagnostic.c_str());
    }
    return std::nullopt;
  }
}

const char kSpecUsage[] =
    "usage: mt4g spec <command> [args]\n"
    "  export [--out DIR]    write every built-in model as a canonical spec\n"
    "                        JSON file (default DIR: specs)\n"
    "  validate FILE...      parse and validate spec files\n"
    "  check [DIR]           verify DIR/<model>.json (default specs/) byte-\n"
    "                        matches the embedded built-ins (CI drift gate)\n"
    "  hash NAME|FILE...     print the spec content hash (the cache-key\n"
    "                        component) of registry models or spec files\n";

int run_spec(int argc, char** argv) {
  if (argc < 1) {
    std::fputs(kSpecUsage, stderr);
    return 2;
  }
  const std::string command = argv[0];
  if (command == "--help" || command == "-h") {
    std::fputs(kSpecUsage, stdout);
    return 0;
  }

  if (command == "export") {
    std::string out_dir = "specs";
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--out" && i + 1 < argc) {
        out_dir = argv[++i];
      } else {
        std::fprintf(stderr, "mt4g spec export: unknown argument '%s'\n",
                     arg.c_str());
        return 2;
      }
    }
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "mt4g spec export: cannot create %s: %s\n",
                   out_dir.c_str(), ec.message().c_str());
      return 1;
    }
    sim::ModelRegistry registry = sim::builtin_registry();
    registry.freeze();
    for (const auto& entry : registry.entries()) {
      if (!write_file(out_dir + "/" + entry.spec.name + ".json",
                      sim::spec_to_json(entry.spec))) {
        return 1;
      }
    }
    std::printf("wrote %zu spec files to %s\n", registry.size(),
                out_dir.c_str());
    return 0;
  }

  if (command == "validate") {
    if (argc < 2) {
      std::fprintf(stderr, "mt4g spec validate: no files given\n");
      return 2;
    }
    bool ok = true;
    for (int i = 1; i < argc; ++i) {
      try {
        const sim::GpuSpec spec = sim::load_spec_file(argv[i]);
        const std::vector<std::string> problems = sim::validate_spec(spec);
        if (problems.empty()) {
          std::printf("%s: ok (%s, hash %s)\n", argv[i], spec.name.c_str(),
                      sim::spec_content_hash_hex(spec).c_str());
        } else {
          ok = false;
          for (const auto& problem : problems) {
            std::fprintf(stderr, "%s: %s\n", argv[i], problem.c_str());
          }
        }
      } catch (const sim::SpecError& e) {
        ok = false;
        for (const auto& diagnostic : e.details()) {
          std::fprintf(stderr, "%s\n", diagnostic.c_str());
        }
      }
    }
    return ok ? 0 : 1;
  }

  if (command == "check") {
    const std::string dir = argc >= 2 ? argv[1] : "specs";
    sim::ModelRegistry registry = sim::builtin_registry();
    registry.freeze();
    bool ok = true;
    for (const auto& entry : registry.entries()) {
      const std::string path = dir + "/" + entry.spec.name + ".json";
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr,
                     "spec check: missing %s (run `mt4g spec export --out "
                     "%s`)\n",
                     path.c_str(), dir.c_str());
        ok = false;
        continue;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      if (buffer.str() != sim::spec_to_json(entry.spec)) {
        std::fprintf(stderr,
                     "spec check: %s drifted from the embedded built-in "
                     "(re-run `mt4g spec export --out %s` after a deliberate "
                     "model change, or fix builtin_models.cpp)\n",
                     path.c_str(), dir.c_str());
        ok = false;
      }
    }
    std::error_code ec;
    for (const auto& file : std::filesystem::directory_iterator(dir, ec)) {
      if (file.path().extension() != ".json") continue;
      if (!registry.contains(file.path().stem().string())) {
        std::fprintf(stderr,
                     "spec check: %s does not correspond to any built-in "
                     "model\n",
                     file.path().string().c_str());
        ok = false;
      }
    }
    if (ok) {
      std::printf("spec check: %zu spec files match the embedded built-ins\n",
                  registry.size());
    }
    return ok ? 0 : 1;
  }

  if (command == "hash") {
    if (argc < 2) {
      std::fprintf(stderr, "mt4g spec hash: no models or files given\n");
      return 2;
    }
    bool ok = true;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      try {
        if (std::filesystem::exists(arg)) {
          const sim::GpuSpec spec = sim::load_spec_file(arg);
          std::printf("%s  %s (%s)\n",
                      sim::spec_content_hash_hex(spec).c_str(), arg.c_str(),
                      spec.name.c_str());
        } else {
          std::printf("%s  %s\n",
                      sim::spec_content_hash_hex(
                          sim::default_registry().get(arg)).c_str(),
                      arg.c_str());
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "mt4g spec hash: %s\n", e.what());
        ok = false;
      }
    }
    return ok ? 0 : 1;
  }

  std::fprintf(stderr, "mt4g spec: unknown command '%s'\n", command.c_str());
  std::fputs(kSpecUsage, stderr);
  return 2;
}

/// Graceful-stop flag for `fleet`: the first SIGINT/SIGTERM asks the sweep
/// to stop claiming jobs (queued jobs report as skipped, journal and cache
/// still flush); handlers then revert to the default disposition so a second
/// signal terminates immediately.
std::atomic<bool> g_cancel{false};

void handle_stop_signal(int) {
  g_cancel.store(true, std::memory_order_relaxed);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
}

/// Hidden subcommand: the supervised worker process behind `fleet --procs`.
/// Reads proto.hpp commands on stdin, writes records on stdout; everything
/// human goes to stderr.
int run_fleet_worker(int argc, char** argv) {
  fleet::WorkerConfig config;
  std::string fault_plan_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mt4g fleet-worker: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--heartbeat-ms") {
      config.heartbeat_ms =
          static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--fault-plan") {
      fault_plan_path = value();
    } else {
      std::fprintf(stderr, "mt4g fleet-worker: unknown option '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  // The coordinator forwards its own --fault-plan so chaos rules fire inside
  // the processes that actually run the jobs.
  std::optional<fleet::ScopedFaultPlan> armed_faults;
  if (!fault_plan_path.empty()) {
    try {
      armed_faults.emplace(fleet::load_fault_plan_file(fault_plan_path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mt4g fleet-worker: bad fault plan %s:\n%s\n",
                   fault_plan_path.c_str(), e.what());
      return 2;
    }
  }
  return fleet::run_worker_loop(std::cin, std::cout, config);
}

const char kFleetUsage[] =
    "usage: mt4g fleet [options]\n"
    "  --models all|NAME[,NAME...]  registry models to sweep (default all;\n"
    "                               with --model-spec, default = the spec\n"
    "                               files' models)\n"
    "  --model-dir DIR              overlay every *.json GPU spec in DIR onto\n"
    "                               the built-in registry for this sweep\n"
    "  --model-spec FILE            load a GPU spec file (repeatable); see\n"
    "                               README \"Model spec files\"\n"
    "  --seeds N                    noise seeds per configuration (default 1)\n"
    "  --first-seed N               first seed value (default 42)\n"
    "  --workers N                  worker threads (default hardware)\n"
    "  --procs N                    run the sweep across N supervised worker\n"
    "                               processes instead of in-process threads:\n"
    "                               a crashing job kills its worker, not the\n"
    "                               sweep (default 0 = in-process). Reports\n"
    "                               are byte-identical either way\n"
    "  --worker-heartbeat-ms N      worker liveness heartbeat period under\n"
    "                               --procs (default 500); a worker silent\n"
    "                               for 10 periods is presumed dead\n"
    "  --journal FILE               append every completed job to FILE\n"
    "                               (fsync'd line JSON) so a killed run can\n"
    "                               be resumed, in-process or --procs alike;\n"
    "                               truncated first unless --resume. A\n"
    "                               failing journal warns, never stops a run\n"
    "  --resume                     load --journal FILE first and only run\n"
    "                               the jobs it does not already answer; the\n"
    "                               final report is byte-identical to an\n"
    "                               uninterrupted run's\n"
    "  --sweep-threads N            parallel batched chases inside one\n"
    "                               benchmark (default 1)\n"
    "  --bench-threads N            concurrent benchmarks of each job's\n"
    "                               discovery stage graph (default 1; both\n"
    "                               knobs leave reports byte-identical, and\n"
    "                               all jobs' stages share one executor)\n"
    "  --no-mig                     skip MIG partitions of MIG-capable GPUs\n"
    "  --retries N                  extra attempts per job after a transient\n"
    "                               failure (default 2; malformed jobs never\n"
    "                               retry). A retried job's report is\n"
    "                               byte-identical to a clean run's\n"
    "  --job-timeout SEC            per-attempt wall-clock deadline, checked\n"
    "                               between benchmark stages (default off);\n"
    "                               expiry counts as a transient failure\n"
    "  --retry-backoff-ms N         base of the exponential backoff between\n"
    "                               attempts, capped at 1000 ms (default 0)\n"
    "  --fail-fast                  start no attempt after the first failed\n"
    "                               job (in-process or --procs); the jobs\n"
    "                               left report as skipped\n"
    "  --keep-going                 run every job despite failures (default)\n"
    "  --fault-plan FILE            arm the deterministic fault-injection\n"
    "                               plan in FILE (JSON; see README \"Failure\n"
    "                               model\"). Env fallback: MT4G_FAULT_PLAN\n"
    "  --cache FILE                 result-cache JSON file\n"
    "                               (default <out>/fleet_cache.json; 'none'\n"
    "                               disables caching)\n"
    "  --baseline DIR               diff results against DIR/<model>.json\n"
    "  --out DIR                    report output directory (default .)\n"
    "  --quiet                      no per-job progress on stderr\n"
    "  --progress                   ~1s heartbeat on stderr (jobs done/total,\n"
    "                               cache hits, elapsed); off by default\n"
    "  --trace FILE                 write a Chrome trace-event JSON of the\n"
    "                               sweep (Perfetto / chrome://tracing)\n"
    "  --metrics FILE               write wall-clock metrics as Prometheus\n"
    "                               text\n"
    "  --help                       this text\n";

int run_fleet(const char* argv0, int argc, char** argv) {
  fleet::SweepPlan plan;
  fleet::SupervisorOptions fleet_options;
  fleet_options.procs = 0;  // in-process threads unless --procs N
  std::string cache_path;    // empty = derive from out dir
  std::string baseline_dir;
  std::string model_dir;
  std::vector<std::string> model_specs;
  std::string out_dir = ".";
  std::string trace_path;
  std::string metrics_path;
  bool quiet = false;
  bool progress = false;
  std::uint32_t sweep_threads = 1;
  std::uint32_t bench_threads = 1;
  std::uint32_t retries = 2;
  std::uint32_t worker_heartbeat_ms = 500;
  std::string journal_path;
  bool resume = false;
  std::string fault_plan_path;
  if (const char* env_plan = std::getenv("MT4G_FAULT_PLAN")) {
    fault_plan_path = env_plan;
  }

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mt4g fleet: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    const auto count_value = [&](long min) {
      const char* text = value();
      char* end = nullptr;
      const long parsed = std::strtol(text, &end, 10);
      if (end == text || *end != '\0' || parsed < min || parsed > 1 << 20) {
        std::fprintf(stderr, "mt4g fleet: %s expects an integer in [%ld, %d]\n",
                     arg.c_str(), min, 1 << 20);
        std::exit(2);
      }
      return static_cast<std::uint32_t>(parsed);
    };
    if (arg == "--help" || arg == "-h") {
      std::fputs(kFleetUsage, stdout);
      return 0;
    } else if (arg == "--models") {
      const std::string models = value();
      if (models != "all") plan.models = split(models, ',');
    } else if (arg == "--seeds") {
      plan.seed_count = count_value(1);
    } else if (arg == "--first-seed") {
      const char* text = value();
      const auto seed = cli::parse_seed(text);
      if (!seed) {
        std::fprintf(stderr,
                     "mt4g fleet: --first-seed expects a decimal integer in "
                     "[0, 2^64), got '%s'\n",
                     text);
        return 2;
      }
      plan.first_seed = *seed;
    } else if (arg == "--workers") {
      fleet_options.workers = count_value(0);
    } else if (arg == "--procs") {
      fleet_options.procs = count_value(0);
    } else if (arg == "--worker-heartbeat-ms") {
      worker_heartbeat_ms = count_value(1);
    } else if (arg == "--journal") {
      journal_path = value();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--sweep-threads") {
      sweep_threads = count_value(1);
    } else if (arg == "--bench-threads") {
      bench_threads = count_value(1);
    } else if (arg == "--no-mig") {
      plan.include_mig = false;
    } else if (arg == "--retries") {
      retries = count_value(0);
    } else if (arg == "--job-timeout") {
      const char* text = value();
      char* end = nullptr;
      const double seconds = std::strtod(text, &end);
      if (end == text || *end != '\0' || seconds <= 0.0) {
        std::fprintf(stderr,
                     "mt4g fleet: --job-timeout expects seconds > 0\n");
        return 2;
      }
      fleet_options.retry.timeout_seconds = seconds;
    } else if (arg == "--retry-backoff-ms") {
      fleet_options.retry.backoff_base_ms = count_value(0);
    } else if (arg == "--fail-fast") {
      fleet_options.fail_fast = true;
    } else if (arg == "--keep-going") {
      fleet_options.fail_fast = false;
    } else if (arg == "--fault-plan") {
      fault_plan_path = value();
    } else if (arg == "--model-dir") {
      model_dir = value();
    } else if (arg == "--model-spec") {
      model_specs.push_back(value());
    } else if (arg == "--cache") {
      cache_path = value();
    } else if (arg == "--baseline") {
      baseline_dir = value();
    } else if (arg == "--out") {
      out_dir = value();
    } else if (arg == "--quiet" || arg == "-q") {
      quiet = true;
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--trace") {
      trace_path = value();
    } else if (arg == "--metrics") {
      metrics_path = value();
    } else {
      std::fprintf(stderr, "mt4g fleet: unknown option '%s'\n", arg.c_str());
      std::fputs(kFleetUsage, stderr);
      return 2;
    }
  }
  if (plan.seed_count == 0) {
    std::fprintf(stderr, "mt4g fleet: --seeds must be >= 1\n");
    return 2;
  }
  if (resume && journal_path.empty()) {
    std::fprintf(stderr, "mt4g fleet: --resume needs --journal FILE\n");
    return 2;
  }
  fleet_options.retry.max_attempts = retries + 1;

  // Armed for the whole sweep (and disarmed on every exit path): chaos runs
  // exercise the same binary, the same code paths, the same flags.
  std::optional<fleet::ScopedFaultPlan> armed_faults;
  if (!fault_plan_path.empty()) {
    try {
      armed_faults.emplace(fleet::load_fault_plan_file(fault_plan_path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mt4g fleet: bad fault plan %s:\n%s\n",
                   fault_plan_path.c_str(), e.what());
      return 2;
    }
  }
  // Must outlive expand_jobs() below (plan.registry points into it).
  std::optional<sim::ModelRegistry> custom;
  if (!model_dir.empty() || !model_specs.empty()) {
    std::vector<std::string> spec_names;
    custom = custom_registry(model_dir, model_specs, &spec_names, "mt4g fleet");
    if (!custom) return 2;
    plan.registry = &*custom;
    // A spec-file sweep without --models covers exactly the file models.
    if (plan.models.empty() && !spec_names.empty()) plan.models = spec_names;
  }
  const sim::ModelRegistry& registry =
      custom ? *custom : sim::default_registry();
  for (const auto& model : plan.models) {
    try {
      registry.get(model);
    } catch (const sim::UnknownModelError& e) {
      std::fprintf(stderr, "mt4g fleet: %s\n", e.what());
      return 2;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "mt4g fleet: cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  std::optional<fleet::ResultCache> cache;
  if (cache_path.empty()) cache_path = out_dir + "/fleet_cache.json";
  if (cache_path != "none") {
    cache.emplace(cache_path);
    if (!cache->load_error().empty()) {
      std::fprintf(stderr, "mt4g fleet: %s — rebuilding cache\n",
                   cache->load_error().c_str());
    }
    fleet_options.cache = &*cache;
  }
  if (!quiet) {
    fleet_options.on_result = [](const fleet::JobResult& result,
                                 std::size_t done, std::size_t total) {
      const char* verdict = result.ok         ? "ok"
                            : result.skipped  ? "SKIPPED"
                            : result.crashed  ? "CRASHED"
                            : result.timed_out ? "TIMED OUT"
                                               : "FAILED";
      std::string detail;
      if (result.from_cache) detail += " (cache)";
      if (result.from_journal) detail += " (journal)";
      if (result.attempts > 1) {
        detail += " (attempt " + std::to_string(result.attempts) + ")";
      }
      if (result.worker_crashes > 0) {
        detail += " (" + std::to_string(result.worker_crashes) +
                  " worker crash(es))";
      }
      std::fprintf(stderr, "fleet: [%zu/%zu] %s %s%s\n", done, total,
                   result.job.key().c_str(), verdict, detail.c_str());
    };
  }

  if ((sweep_threads > 1 || bench_threads > 1) &&
      plan.option_variants.empty()) {
    core::DiscoverOptions options;
    options.sweep_threads = sweep_threads;
    options.bench_threads = bench_threads;
    plan.option_variants.push_back(options);
  }

  fleet::FleetProgress fleet_progress;
  fleet_options.progress = &fleet_progress;
  ObsSession obs_session(trace_path, metrics_path);

  const std::vector<fleet::DiscoveryJob> jobs = fleet::expand_jobs(plan);

  // --resume replays the journal's outcomes into prefilled result slots;
  // without it the journal starts over.
  std::vector<fleet::JobResult> prefilled;
  std::optional<fleet::RunJournal> journal;
  if (!journal_path.empty()) {
    try {
      if (resume) {
        std::size_t outdated = 0;
        fleet::apply_journal(jobs, fleet::load_journal(journal_path, &outdated),
                             prefilled);
        if (outdated > 0) {
          std::fprintf(stderr,
                       "mt4g fleet: journal '%s' holds %zu record(s) of an "
                       "older format; their jobs rerun\n",
                       journal_path.c_str(), outdated);
        }
      }
      journal.emplace(fleet::RunJournal::open(journal_path, !resume));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mt4g fleet: %s\n", e.what());
      return 1;
    }
    fleet_options.journal = &*journal;
  }

  // First SIGINT/SIGTERM = graceful stop; second = immediate death.
  fleet_options.cancel = &g_cancel;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  // Under --procs, supervised worker processes run the attempts: crash
  // containment and heartbeat liveness (README "Distributed fleet").
  fleet_options.worker_argv = {argv0, "fleet-worker", "--heartbeat-ms",
                               std::to_string(worker_heartbeat_ms)};
  if (!fault_plan_path.empty()) {
    fleet_options.worker_argv.push_back("--fault-plan");
    fleet_options.worker_argv.push_back(fault_plan_path);
  }
  fleet_options.heartbeat_timeout_seconds =
      std::max(2.0, 10.0 * worker_heartbeat_ms / 1000.0);
  std::vector<fleet::JobResult> results;
  {
    std::optional<ProgressHeartbeat> heartbeat;
    if (progress) heartbeat.emplace(fleet_progress);
    results = fleet_options.procs > 0
                  ? fleet::run_supervised(jobs, fleet_options,
                                          std::move(prefilled))
                  : fleet::run_sweep(jobs, fleet_options, std::move(prefilled));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  if (g_cancel.load(std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "fleet: cancelled — queued jobs skipped, journal and cache "
                 "flushed\n");
  }
  if (journal && !journal->error().empty()) {
    std::fprintf(stderr,
                 "mt4g fleet: %s — jobs settled after it are not journaled\n",
                 journal->error().c_str());
  }
  if (!obs_session.finish()) return 1;
  const fleet::FleetReport report = fleet::aggregate(results);

  if (cache && !cache->save()) {
    std::fprintf(stderr, "mt4g fleet: cannot write cache %s\n",
                 cache_path.c_str());
  }

  std::string markdown = fleet::to_markdown(report);
  bool regressions = false;
  if (!baseline_dir.empty()) {
    std::map<std::string, core::TopologyReport> baselines;
    for (const auto& model : report.models) {
      std::ifstream in(baseline_dir + "/" + model + ".json");
      if (!in) {
        std::fprintf(stderr, "mt4g fleet: no baseline %s/%s.json — skipped\n",
                     baseline_dir.c_str(), model.c_str());
        continue;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      try {
        baselines.emplace(model, core::from_json_string(buffer.str()));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "mt4g fleet: baseline %s.json unreadable: %s\n",
                     model.c_str(), e.what());
      }
    }
    if (baselines.empty()) {
      std::fprintf(stderr,
                   "mt4g fleet: --baseline %s matched no model — check the "
                   "directory\n",
                   baseline_dir.c_str());
    }
    markdown += "## Baseline diff\n\n";
    for (const auto& diff : fleet::diff_vs_baseline(results, baselines)) {
      if (diff.differences.empty()) {
        markdown += "- " + diff.model + ": matches baseline\n";
        continue;
      }
      regressions = true;
      markdown += "- " + diff.model + ": " +
                  std::to_string(diff.differences.size()) + " difference(s)\n";
      for (const auto& difference : diff.differences) {
        markdown += "  - " + difference.element + "." + difference.attribute +
                    ": " + difference.lhs + " -> " + difference.rhs + "\n";
      }
    }
    markdown += "\n";
  }

  bool ok = true;
  ok &= write_file(out_dir + "/fleet_report.md", markdown);
  ok &= write_file(out_dir + "/fleet_report.json",
                   fleet::fleet_to_json(report).dump() + "\n");
  std::fputs(markdown.c_str(), stdout);
  if (!quiet) {
    std::fprintf(stderr,
                 "fleet: %zu jobs, %zu ok, %zu failed, %zu skipped, "
                 "%zu cache hits, %zu retries, %zu timeouts, "
                 "%zu worker crashes\n",
                 report.summary.total_jobs, report.summary.succeeded,
                 report.summary.failed, report.summary.skipped,
                 report.summary.cache_hits, report.summary.retries,
                 report.summary.timed_out, report.summary.worker_crashes);
  }
  if (!ok) return 1;
  if (regressions) return 3;
  // A sweep with failed OR skipped jobs is degraded: the report is still
  // written (and valid), but the exit status must say "not everything ran".
  return (report.summary.failed == 0 && report.summary.skipped == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "fleet") {
    return run_fleet(argv[0], argc - 2, argv + 2);
  }
  if (argc > 1 && std::string(argv[1]) == "fleet-worker") {
    return run_fleet_worker(argc - 2, argv + 2);
  }
  if (argc > 1 && std::string(argv[1]) == "spec") {
    return run_spec(argc - 2, argv + 2);
  }
  const cli::ParseResult parsed = cli::parse(argc, argv);
  if (parsed.show_help) {
    std::fputs(cli::usage().c_str(), stdout);
    return 0;
  }
  if (!parsed.errors.empty()) {
    for (const auto& error : parsed.errors) {
      std::fprintf(stderr, "mt4g: %s\n", error.c_str());
    }
    std::fputs(cli::usage().c_str(), stderr);
    return 2;
  }
  const cli::Options& options = parsed.options;

  // --model-dir / --model-spec build a run-local registry over the built-ins;
  // without them every lookup goes to the process-wide default registry.
  std::optional<sim::ModelRegistry> custom;
  std::string gpu_name = options.gpu_name;
  if (!options.model_dir.empty() || !options.model_specs.empty()) {
    std::vector<std::string> spec_names;
    custom = custom_registry(options.model_dir, options.model_specs,
                             &spec_names, "mt4g");
    if (!custom) return 2;
    if (!options.gpu_name_set && !spec_names.empty()) {
      gpu_name = spec_names.back();
    }
  }
  const sim::ModelRegistry& registry =
      custom ? *custom : sim::default_registry();

  if (options.list_gpus) {
    for (const auto& name : registry.all_names()) {
      const auto& spec = registry.get(name);
      std::printf("%-12s %-7s %-8s %s\n", name.c_str(),
                  sim::vendor_name(spec.vendor).c_str(),
                  spec.microarchitecture.c_str(), spec.model.c_str());
    }
    return 0;
  }
  const sim::GpuSpec* model = nullptr;
  try {
    model = &registry.get(gpu_name);
  } catch (const sim::UnknownModelError& e) {
    std::fprintf(stderr, "mt4g: %s\n", e.what());
    return 2;
  }

  core::DiscoverOptions discover_options;
  for (const std::string& element : options.only) {
    try {
      discover_options.only.push_back(sim::parse_element(element));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mt4g: %s\n", e.what());
      return 2;
    }
  }
  discover_options.collect_series = options.emit_graphs || options.emit_raw;
  discover_options.measure_compute = options.measure_flops;
  discover_options.sweep_threads = options.sweep_threads;
  discover_options.bench_threads = options.bench_threads;

  // A spec can validate and still describe a GPU the simulator cannot
  // build or discover (e.g. more SMs than memory holds): fail like a fleet
  // job does instead of letting the exception abort the process.
  std::optional<core::TopologyReport> discovered;
  try {
    const sim::GpuSpec spec =
        core::apply_cache_config(*model, options.cache_config);
    sim::Gpu gpu(spec, options.seed);

    if (!options.quiet) {
      std::fprintf(stderr, "mt4g: analysing %s (%s, %s, seed %llu)...\n",
                   gpu_name.c_str(),
                   sim::vendor_name(spec.vendor).c_str(),
                   options.cache_config.c_str(),
                   static_cast<unsigned long long>(options.seed));
    }
    ObsSession obs_session(options.trace_path, options.metrics_path);
    discovered = core::discover(gpu, discover_options);
    if (!obs_session.finish()) return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mt4g: error: %s\n", e.what());
    return 1;
  }
  const core::TopologyReport& report = *discovered;
  if (!options.quiet) {
    std::fprintf(stderr, "mt4g: %u benchmarks, %.1f s simulated GPU time\n",
                 report.benchmarks_executed, report.simulated_seconds);
  }

  const std::string prefix = options.output_dir + "/" + gpu_name;
  bool ok = true;
  if (options.emit_json_file) {
    ok &= write_file(prefix + ".json", core::to_json_string(report) + "\n");
  } else {
    std::puts(core::to_json_string(report).c_str());
  }
  if (options.emit_markdown) {
    ok &= write_file(prefix + ".md", core::to_markdown(report));
  }
  if (options.emit_graphs) {
    ok &= write_file(prefix + "_series.csv", core::series_to_csv(report));
  }
  if (options.emit_raw) {
    ok &= write_file(prefix + ".csv", core::to_csv(report));
  }
  return ok ? 0 : 1;
}
