#include "core/pipeline/runner.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <set>
#include <utility>

#include "common/fault.hpp"
#include "exec/executor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mt4g::core::pipeline {
namespace {

/// Per-stage execution record: the chase pool, the bookings, and the stage
/// outputs that merge in declaration order.
struct StageRecord {
  runtime::ReplicaPool pool;
  StageBooking booking;
  std::vector<SizeSeries> series;
  std::vector<ComputeThroughputReport> compute_throughput;
  double wall_seconds = 0.0;  ///< host wall time of run_stage on its worker
  bool executed = false;
};

struct GraphRun {
  sim::Gpu& gpu;
  const StageGraph& graph;
  GraphState& state;
  const DiscoverOptions& options;
  std::vector<StageRecord> records;
  std::vector<std::exception_ptr> errors;
  std::vector<bool> failed;  ///< threw, or transitively depends on a throw

  explicit GraphRun(sim::Gpu& gpu_, const StageGraph& graph_,
                    GraphState& state_, const DiscoverOptions& options_)
      : gpu(gpu_), graph(graph_), state(state_), options(options_),
        records(graph_.stages.size()), errors(graph_.stages.size()),
        failed(graph_.stages.size(), false) {}

  /// Executes one stage on its own substrate: a fork of the owning Gpu
  /// with the owner's seed and allocator cursor and cold caches. Every
  /// stage therefore sees identical substrate state, so its measurements
  /// are a pure function of (owner seed, stage) — the scheduling-
  /// independence the byte-identity contract rests on. A fork costs the
  /// caches' empty page tables, not their way state; it is traced and timed
  /// like every chase replica's (runtime::fork_replica).
  void run_stage(std::size_t i) {
    // Cooperative cancellation checkpoint: an expired per-job deadline
    // surfaces as a TimeoutError stage failure, which skips every dependent
    // stage and drains the remaining independent ones instantly (each hits
    // this same check), so a timed-out graph unwinds under any schedule.
    options.deadline.check("pipeline.stage");
    // Deterministic fault injection (disabled: one relaxed atomic load).
    if (fault::faults_enabled()) {
      fault::Injector::instance().at(fault::kSitePipelineStage,
                                     graph.stages[i].name);
    }
    // Wall time is always measured (two clock reads); the span and metric
    // sites are no-ops unless a trace/metrics run opted in. None of it feeds
    // back into the measurement — the byte-identity contract is untouched.
    const obs::SpanGuard span("stage:", graph.stages[i].name);
    const std::uint64_t start_ns = obs::monotonic_ns();
    sim::Gpu substrate = runtime::fork_replica(gpu);
    StageRecord& record = records[i];
    // The one place that says how a stage's chases run: sweep_threads
    // participants per batch, on the graph's executor, so a worker with no
    // ready stage can help its siblings' batches. Left null, a batch that
    // fans out resolves the shared executor itself; a serial discovery
    // never touches it and its process stays single-threaded.
    record.pool.threads = options.sweep_threads;
    record.pool.executor = options.bench_executor;
    StageContext ctx{substrate, options, state, record.pool};
    graph.stages[i].run(ctx);
    record.booking = ctx.booking;
    record.series = std::move(ctx.series);
    record.compute_throughput = std::move(ctx.compute_throughput);
    record.executed = true;
    // The chase replicas are done; chases and reset_ns stay for the merge.
    record.pool.replicas.clear();
    const std::uint64_t wall_ns = obs::monotonic_ns() - start_ns;
    record.wall_seconds = static_cast<double>(wall_ns) * 1e-9;
    if (obs::metrics_enabled()) {
      obs::Metrics::instance().add("pipeline.stage_wall_ns",
                                   static_cast<double>(wall_ns));
    }
  }
};

void run_serial(GraphRun& run, const std::vector<std::vector<std::size_t>>& deps,
                const std::vector<std::size_t>& order) {
  for (const std::size_t i : order) {
    for (const std::size_t d : deps[i]) {
      if (run.failed[d]) run.failed[i] = true;
    }
    if (run.failed[i]) continue;
    try {
      run.run_stage(i);
    } catch (...) {
      run.errors[i] = std::current_exception();
      run.failed[i] = true;
    }
  }
}

/// Dependency-aware worker-pool scheduling: workers pull the ready stage
/// with the lowest declaration index. A worker with no ready stage waits in
/// Executor::help_until, running tasks of queued chase batches (its sibling
/// stages', or any other discovery's on the same executor) until a stage is
/// ready or the graph drained; stage completion wakes it through the
/// executor, after the graph mutex is released. Progress is guaranteed even
/// on a pool-less executor (parallel_for then runs the first worker loop
/// inline on the caller, which drains the whole graph serially).
void run_concurrent(GraphRun& run,
                    const std::vector<std::vector<std::size_t>>& deps,
                    std::uint32_t bench_threads, exec::Executor& executor) {
  const std::size_t n = run.graph.stages.size();
  std::vector<std::size_t> remaining(n);
  std::vector<std::vector<std::size_t>> dependents(n);
  std::mutex mutex;
  std::set<std::size_t> ready;
  std::size_t unfinished = n;
  for (std::size_t i = 0; i < n; ++i) {
    remaining[i] = deps[i].size();
    for (const std::size_t d : deps[i]) dependents[d].push_back(i);
    if (remaining[i] == 0) ready.insert(i);
  }
  const auto runnable = [&] { return !ready.empty() || unfinished == 0; };

  const auto worker = [&](std::size_t, std::uint32_t) {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      if (!runnable()) {
        lock.unlock();
        executor.help_until([&] {
          const std::lock_guard<std::mutex> guard(mutex);
          return runnable();
        });
        lock.lock();
        continue;  // another worker may have taken the ready stage
      }
      if (ready.empty()) return;  // drained
      const std::size_t i = *ready.begin();
      ready.erase(ready.begin());
      bool ok = !run.failed[i];
      if (ok) {
        lock.unlock();
        try {
          run.run_stage(i);
        } catch (...) {
          run.errors[i] = std::current_exception();
          ok = false;
        }
        lock.lock();
        if (!ok) run.failed[i] = true;
      }
      for (const std::size_t dependent : dependents[i]) {
        if (!ok) run.failed[dependent] = true;
        if (--remaining[dependent] == 0) ready.insert(dependent);
      }
      --unfinished;
      // This worker takes the next ready stage itself; waiters are woken for
      // the surplus, or to return once the graph drained.
      if (ready.size() > 1 || unfinished == 0) {
        lock.unlock();
        executor.wake_helpers();
        lock.lock();
      }
    }
  };

  const auto workers = static_cast<std::uint32_t>(
      std::min<std::size_t>(bench_threads, std::max<std::size_t>(n, 1)));
  executor.parallel_for(workers, workers, worker);
}

}  // namespace

void run_graph(sim::Gpu& gpu, DiscoveryPlan& plan,
               const DiscoverOptions& options, TopologyReport& report) {
  // prune() analyses the unpruned graph internally (validating it in the
  // process); one analyze() of the pruned graph covers everything below.
  prune(plan.graph, options.only);
  const StageGraph& graph = plan.graph;
  const std::size_t n = graph.stages.size();
  const auto [deps, order] = analyze(graph);

  GraphRun run(gpu, graph, plan.state, options);
  if (options.bench_threads <= 1 || n <= 1) {
    run_serial(run, deps, order);
  } else {
    exec::Executor& executor = options.bench_executor
                                   ? *options.bench_executor
                                   : exec::shared_executor();
    run_concurrent(run, deps, options.bench_threads, executor);
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (run.errors[i]) std::rethrow_exception(run.errors[i]);
  }

  // --- Deterministic merge, everything in stage-declaration order. ---------
  report.stage_cycles.reserve(report.stage_cycles.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    const StageRecord& record = run.records[i];
    const StageBooking& booking = record.booking;
    report.benchmarks_executed += booking.benchmarks;
    report.simulated_seconds += booking.seconds;
    report.total_cycles += booking.cycles;
    report.sweep_widenings += booking.sweep_widenings;
    report.chase_memo_misses += record.pool.chases;
    report.stage_cycles.push_back(
        {graph.stages[i].name, booking.cycles, record.wall_seconds,
         static_cast<double>(record.pool.reset_ns) * 1e-9});
    for (const SizeSeries& series : record.series) {
      report.series.push_back(series);
    }
    for (const ComputeThroughputReport& row : record.compute_throughput) {
      report.compute_throughput.push_back(row);
    }
  }

  // Critical path: the longest dependency chain of stage cycles.
  std::vector<std::uint64_t> path(n, 0);
  std::uint64_t critical = 0;
  for (const std::size_t i : order) {
    std::uint64_t longest_dep = 0;
    for (const std::size_t d : deps[i]) {
      longest_dep = std::max(longest_dep, path[d]);
    }
    path[i] = longest_dep + run.records[i].booking.cycles;
    critical = std::max(critical, path[i]);
  }
  report.critical_path_cycles += critical;

  // Rows surface in the builder's element order, restricted to the
  // selected elements; dependency-only elements (e.g. Const L1 under
  // --only const_l15) ran their stages but stay silent.
  for (const sim::Element element : graph.row_order) {
    if (!options.wants(element)) continue;
    const bool present = std::any_of(
        graph.stages.begin(), graph.stages.end(),
        [&](const Stage& stage) { return stage.element == element; });
    if (!present) continue;
    const auto row = plan.state.rows.find(element);
    if (row != plan.state.rows.end()) report.memory.push_back(row->second);
  }
  report.cu_sharing = plan.state.cu_sharing;
}

}  // namespace mt4g::core::pipeline
