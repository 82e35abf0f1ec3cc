// Stage-graph tests: registration-time validation diagnostics, --only
// pruning with transitive dependencies, the determinism contract (reports
// byte-identical for every bench_threads x sweep_threads combination,
// chase counts and stage cycles included), and the cost model: stage
// cycles sum to the total, the critical path is their longest dependency
// path, and modelled GPU time has the shape of paper Sec. V-A.
#include "core/pipeline/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>

#include "common/units.hpp"
#include "core/collector.hpp"
#include "core/output/json_output.hpp"
#include "core/pipeline/stage.hpp"
#include "exec/executor.hpp"
#include "sim/registry.hpp"

namespace mt4g::core::pipeline {
namespace {

using sim::Element;

Stage make_stage(std::string name, Element element,
                 std::vector<std::string> deps) {
  return Stage{std::move(name), element, StageKind::kLatency, std::move(deps),
               false, [](StageContext&) {}};
}

// --- Validation diagnostics. ------------------------------------------------

TEST(StageGraphValidation, AcceptsValidGraph) {
  StageGraph graph;
  graph.add(make_stage("a", Element::kL1, {}));
  graph.add(make_stage("b", Element::kL1, {"a"}));
  graph.add(make_stage("c", Element::kL1, {"a", "b"}));
  EXPECT_NO_THROW(validate(graph));
  EXPECT_EQ(topological_order(graph), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(StageGraphValidation, RejectsDuplicateNames) {
  StageGraph graph;
  graph.add(make_stage("a", Element::kL1, {}));
  graph.add(make_stage("a", Element::kL2, {}));
  try {
    validate(graph);
    FAIL() << "duplicate name accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate stage name 'a'"),
              std::string::npos);
  }
}

TEST(StageGraphValidation, RejectsUnknownDependency) {
  StageGraph graph;
  graph.add(make_stage("a", Element::kL1, {"ghost"}));
  try {
    validate(graph);
    FAIL() << "unknown dependency accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'a'"), std::string::npos);
    EXPECT_NE(what.find("'ghost'"), std::string::npos);
  }
}

TEST(StageGraphValidation, RejectsSelfDependency) {
  StageGraph graph;
  graph.add(make_stage("a", Element::kL1, {"a"}));
  EXPECT_THROW(validate(graph), std::invalid_argument);
}

TEST(StageGraphValidation, RejectsCycles) {
  StageGraph graph;
  graph.add(make_stage("ring1", Element::kL1, {"ring3"}));
  graph.add(make_stage("ring2", Element::kL1, {"ring1"}));
  graph.add(make_stage("ring3", Element::kL1, {"ring2"}));
  graph.add(make_stage("innocent", Element::kL1, {}));
  try {
    validate(graph);
    FAIL() << "cycle accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle"), std::string::npos);
    // Every stage on the cycle is named; the innocent one is not.
    EXPECT_NE(what.find("ring1"), std::string::npos);
    EXPECT_NE(what.find("ring2"), std::string::npos);
    EXPECT_NE(what.find("ring3"), std::string::npos);
    EXPECT_EQ(what.find("innocent"), std::string::npos);
  }
}

TEST(StageGraphValidation, RejectsMissingRunFunction) {
  StageGraph graph;
  graph.add(Stage{"a", Element::kL1, StageKind::kLatency, {}, false, {}});
  EXPECT_THROW(validate(graph), std::invalid_argument);
}

TEST(StageGraphValidation, TopologicalOrderHandlesForwardDeclarations) {
  // Declaration order need not be topological; execution order is.
  StageGraph graph;
  graph.add(make_stage("late", Element::kL1, {"early"}));
  graph.add(make_stage("early", Element::kL1, {}));
  EXPECT_EQ(topological_order(graph), (std::vector<std::size_t>{1, 0}));
}

// --- Pruning. ----------------------------------------------------------------

bool has_stage(const StageGraph& graph, const std::string& name) {
  return graph.index_of(name) != StageGraph::npos;
}

TEST(StageGraphPruning, KeepsTransitiveDependencies) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  DiscoverOptions options;
  DiscoveryPlan plan = nvidia_stages(gpu, options);
  // Const L1.5 feeds on the Const L1 probes: pruning to CL1.5 must keep
  // them (and their fg prerequisites), drop unrelated elements, and drop
  // the full-run-only sharing stage.
  prune(plan.graph, {Element::kConstL15});
  EXPECT_TRUE(has_stage(plan.graph, "CL15.size"));
  EXPECT_TRUE(has_stage(plan.graph, "CL15.line"));
  EXPECT_TRUE(has_stage(plan.graph, "CO.size"));
  EXPECT_TRUE(has_stage(plan.graph, "CO.fg"));
  EXPECT_FALSE(has_stage(plan.graph, "CO.line"));   // not a CL1.5 dependency
  EXPECT_FALSE(has_stage(plan.graph, "L1.size"));
  EXPECT_FALSE(has_stage(plan.graph, "L2.segment"));
  EXPECT_FALSE(has_stage(plan.graph, "sharing.pairs"));
  EXPECT_NO_THROW(validate(plan.graph));
}

TEST(StageGraphPruning, EmptySetKeepsEverything) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  DiscoverOptions options;
  DiscoveryPlan plan = nvidia_stages(gpu, options);
  const std::size_t all = plan.graph.stages.size();
  prune(plan.graph, {});
  EXPECT_EQ(plan.graph.stages.size(), all);
  EXPECT_TRUE(has_stage(plan.graph, "sharing.pairs"));
}

TEST(StageGraphPruning, OnlySetReportsSelectedRowsOnly) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  DiscoverOptions options;
  options.only = {Element::kL1, Element::kL2};
  const TopologyReport report = discover(gpu, options);
  ASSERT_EQ(report.memory.size(), 2u);
  EXPECT_EQ(report.memory[0].element, Element::kL1);
  EXPECT_EQ(report.memory[1].element, Element::kL2);
  // Both rows carry their benchmark results.
  EXPECT_TRUE(report.memory[0].size.available());
  EXPECT_TRUE(report.memory[1].fetch_granularity.available());
}

TEST(StageGraphPruning, DependencyOnlyElementsStaySilent) {
  // --only CONST_L15 runs the Const L1 probes (data dependency) but only
  // reports the CL1.5 row — the generalised Sec. V-A restriction.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  DiscoverOptions options;
  options.only = {Element::kConstL15};
  const TopologyReport report = discover(gpu, options);
  ASSERT_EQ(report.memory.size(), 1u);
  EXPECT_EQ(report.memory[0].element, Element::kConstL15);
  EXPECT_EQ(static_cast<std::uint64_t>(report.memory[0].size.value), 8 * KiB);
}

// --- Determinism: byte-identical reports for every thread combination. ------

std::string discover_json(const std::string& model, std::uint32_t bench,
                          std::uint32_t sweep, exec::Executor* executor) {
  sim::Gpu gpu(sim::registry_get(model), 42);
  DiscoverOptions options;
  options.bench_threads = bench;
  options.sweep_threads = sweep;
  options.bench_executor = executor;
  options.collect_series = true;  // series merge order is part of the contract
  return to_json_string(discover(gpu, options));
}

TEST(StageGraphDeterminism, ReportsByteIdenticalAcrossThreadCombinations) {
  // A dedicated pool forces real stage interleaving regardless of the
  // host's core count. The JSON covers every contract field: rows,
  // benchmarks_executed, per-stage cycles, critical path, chase counts,
  // series.
  exec::Executor pool(7);
  for (const std::string model : {"TestGPU-NV", "TestGPU-AMD"}) {
    const std::string reference = discover_json(model, 1, 1, nullptr);
    for (const std::uint32_t bench : {1u, 4u, 8u}) {
      // 3 is the first sweep-thread count at which size chains run ahead.
      for (const std::uint32_t sweep : {1u, 3u, 8u}) {
        const exec::ExecutorStats before = pool.stats();
        EXPECT_EQ(discover_json(model, bench, sweep, &pool), reference)
            << model << " diverges at bench_threads=" << bench
            << " sweep_threads=" << sweep;
        if (sweep > 1) {
          // The chase batches ran on the injected pool too: it executed
          // more tasks than the graph has stage workers.
          EXPECT_GT(pool.stats().tasks - before.tasks, bench)
              << model << " bench_threads=" << bench;
        }
      }
    }
  }
}

TEST(StageGraphDeterminism, RealModelsByteIdenticalSerialVsConcurrent) {
  // Two real registry models (one per vendor) at the extreme combination.
  // Eight stage workers hold the caller and all seven pool threads, so
  // every chase task a joiner ran beyond the seven worker tasks was run by
  // a stage worker helping while it had no ready stage: the byte check
  // covers helped chases. Whether a stage worker finds a batch to help
  // with depends on the host's scheduling (a loaded host may finish every
  // batch before a worker runs out of stages), so the concurrent discovery
  // repeats, each run byte-checked, until one has been helped.
  constexpr int kMaxRuns = 10;
  exec::Executor pool(7);
  for (const std::string model : {"P6000", "MI300X"}) {
    const std::string serial = discover_json(model, 1, 1, nullptr);
    bool helped = false;
    for (int run = 0; run < kMaxRuns && !helped; ++run) {
      const exec::ExecutorStats before = pool.stats();
      EXPECT_EQ(discover_json(model, 8, 8, &pool), serial)
          << model << ", run " << run;
      helped = pool.stats().pool_tasks - before.pool_tasks > 7;
    }
    EXPECT_TRUE(helped) << model << ": no stage worker helped a chase batch in "
                        << kMaxRuns << " runs";
  }
}

TEST(StageGraphExecutor, IdleStageWorkersHelpChaseBatches) {
  // MI100's CU-pair batch holds 7,140 chases. On a host with up to four
  // hardware threads the four stage workers occupy the whole shared pool,
  // so only workers helping while they have no ready stage can take chases
  // off the submitter; parked workers would leave it nearly all of them.
  exec::Executor& executor = exec::shared_executor();
  if (executor.pool_threads() == 0) {
    GTEST_SKIP() << "the shared executor has no pool threads";
  }
  sim::Gpu gpu(sim::registry_get("MI100"), 42);
  DiscoverOptions options;
  options.bench_threads = 4;
  options.sweep_threads = 4;
  const exec::ExecutorStats before = executor.stats();
  (void)discover(gpu, options);
  const exec::ExecutorStats after = executor.stats();
  const std::uint64_t tasks = after.tasks - before.tasks;
  const std::uint64_t joined = after.pool_tasks - before.pool_tasks;
  ASSERT_GT(tasks, 7140u);
  EXPECT_GE(joined * 10, tasks)
      << joined << " of " << tasks << " tasks ran on joined participants";
}

TEST(StageGraphExecutor, SweepThreadsAloneFanChasesOutOnTheBenchExecutor) {
  // One stage worker, four chase participants: the stage runner alone
  // tells each stage's chase pool how its batches run, so the chases must
  // reach the injected executor, and the report must equal the serial one.
  exec::Executor pool(3);
  const std::string serial = discover_json("TestGPU-NV", 1, 1, nullptr);
  const exec::ExecutorStats before = pool.stats();
  EXPECT_EQ(discover_json("TestGPU-NV", 1, 4, &pool), serial);
  EXPECT_GT(pool.stats().tasks - before.tasks, 0u)
      << "sweep_threads = 4 ran every chase batch serially";
}

/// Threads of this process, from /proc/self/status; -1 if unreadable.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(StageGraphExecutor, SerialDiscoveryStartsNoPoolThreads) {
  // Fleet worker processes discover serially; they must stay
  // single-threaded, as no executor is needed there. The threadsafe style
  // re-executes this binary for the child, so its shared executor is
  // unstarted whatever earlier tests in this process did.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        sim::Gpu gpu(sim::registry_get("TestGPU-AMD"), 42);
        (void)discover(gpu);
        std::exit(process_threads() == 1 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(StageGraphDeterminism, ChaseCountsAndAttributionStable) {
  exec::Executor pool(7);
  sim::Gpu serial_gpu(sim::registry_get("TestGPU-NV"), 42);
  const TopologyReport serial = discover(serial_gpu);

  sim::Gpu parallel_gpu(sim::registry_get("TestGPU-NV"), 42);
  DiscoverOptions options;
  options.bench_threads = 8;
  options.sweep_threads = 8;
  options.bench_executor = &pool;
  const TopologyReport parallel = discover(parallel_gpu, options);

  // Every chase runs: no hits, and the same chases under every schedule.
  EXPECT_EQ(serial.chase_memo_hits, 0u);
  EXPECT_EQ(parallel.chase_memo_hits, 0u);
  EXPECT_GT(serial.chase_memo_misses, 0u);
  EXPECT_EQ(serial.chase_memo_misses, parallel.chase_memo_misses);
  EXPECT_EQ(serial.total_cycles, parallel.total_cycles);
  EXPECT_EQ(serial.critical_path_cycles, parallel.critical_path_cycles);
  ASSERT_EQ(serial.stage_cycles.size(), parallel.stage_cycles.size());
  for (std::size_t i = 0; i < serial.stage_cycles.size(); ++i) {
    EXPECT_EQ(serial.stage_cycles[i].cycles, parallel.stage_cycles[i].cycles)
        << serial.stage_cycles[i].stage;
  }
  EXPECT_EQ(serial.benchmarks_executed, parallel.benchmarks_executed);
}

// --- Telemetry. --------------------------------------------------------------

/// The longest dependency path of @p report's stage cycles through the stage
/// graph discover() runs for @p model under @p options.
std::uint64_t longest_stage_path(const std::string& model,
                                 const TopologyReport& report,
                                 const DiscoverOptions& options) {
  sim::Gpu gpu(sim::registry_get(model), 42);
  DiscoveryPlan plan = gpu.spec().vendor == sim::Vendor::kNvidia
                           ? nvidia_stages(gpu, options)
                           : amd_stages(gpu, options);
  prune(plan.graph, options.only);
  const GraphAnalysis analysis = analyze(plan.graph);
  std::map<std::string, std::uint64_t> cycles;
  for (const auto& stage : report.stage_cycles) {
    cycles[stage.stage] = stage.cycles;
  }
  std::vector<std::uint64_t> path(plan.graph.stages.size(), 0);
  std::uint64_t longest = 0;
  for (const std::size_t i : analysis.order) {
    for (const std::size_t d : analysis.deps[i]) {
      path[i] = std::max(path[i], path[d]);
    }
    path[i] += cycles.at(plan.graph.stages[i].name);
    longest = std::max(longest, path[i]);
  }
  return longest;
}

/// Every built-in model discovered once at seed 42 with default options.
const std::map<std::string, TopologyReport>& builtin_reports() {
  static const std::map<std::string, TopologyReport> reports = [] {
    std::map<std::string, TopologyReport> out;
    for (const std::string& model : sim::registry_all_names()) {
      sim::Gpu gpu(sim::registry_get(model), 42);
      out.emplace(model, discover(gpu));
    }
    return out;
  }();
  return reports;
}

TEST(StageGraphTelemetry, StageCyclesSumToTotalAndBoundCriticalPath) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const TopologyReport report = discover(gpu);
  ASSERT_FALSE(report.stage_cycles.empty());
  std::uint64_t sum = 0;
  for (const auto& stage : report.stage_cycles) sum += stage.cycles;
  EXPECT_EQ(sum, report.total_cycles);
  EXPECT_GT(report.critical_path_cycles, 0u);
  // Independent elements exist, so some benchmark-level speedup is
  // available: the critical path is strictly below the serial total.
  EXPECT_LT(report.critical_path_cycles, report.total_cycles);
}

TEST(StageGraphTelemetry, EveryBuiltinAttributesAllCyclesToStages) {
  // Stage cycles are the only attribution: on every built-in they sum to
  // total_cycles, and the critical path is their longest dependency path.
  ASSERT_EQ(builtin_reports().size(), sim::registry_all_names().size());
  for (const auto& [model, report] : builtin_reports()) {
    std::uint64_t sum = 0;
    for (const auto& stage : report.stage_cycles) sum += stage.cycles;
    EXPECT_EQ(sum, report.total_cycles) << model;
    EXPECT_EQ(report.critical_path_cycles,
              longest_stage_path(model, report, DiscoverOptions{}))
        << model;
  }
}

TEST(StageGraphTelemetry, SimulatedTimeHasThePaperSecVAShape) {
  // Paper Sec. V-A: a discovery takes 6-14 min on each NVIDIA GPU and about
  // 1 min on each AMD GPU, so every NVIDIA model costs more modelled GPU
  // time than any AMD model.
  double fastest_nvidia = std::numeric_limits<double>::infinity();
  double slowest_amd = 0.0;
  for (const std::string& model : sim::registry_names()) {
    const double seconds = builtin_reports().at(model).simulated_seconds;
    if (sim::registry_get(model).vendor == sim::Vendor::kNvidia) {
      fastest_nvidia = std::min(fastest_nvidia, seconds);
    } else {
      slowest_amd = std::max(slowest_amd, seconds);
    }
  }
  EXPECT_GT(slowest_amd, 0.0);
  EXPECT_GT(fastest_nvidia, slowest_amd);

  // An L1-only run cuts the A100 analysis from over 12 min to about 1 min.
  // The ratio here is larger (see README, "Simulated GPU time"), but an
  // L1-only run must be at least 10x cheaper than the full one.
  DiscoverOptions l1_only;
  l1_only.only = {sim::Element::kL1};
  sim::Gpu gpu(sim::registry_get("A100"), 42);
  const TopologyReport l1 = discover(gpu, l1_only);
  EXPECT_GT(l1.simulated_seconds, 0.0);
  EXPECT_GE(builtin_reports().at("A100").simulated_seconds,
            10.0 * l1.simulated_seconds);
  EXPECT_EQ(l1.critical_path_cycles, longest_stage_path("A100", l1, l1_only));
}

TEST(StageGraphTelemetry, BandwidthStagesAttributeCycles) {
  // The bandwidth streams and the compute suite are kernels timed in
  // simulated seconds; their cycles land on their own stages like every
  // chase benchmark's.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  DiscoverOptions options;
  options.measure_compute = true;
  const TopologyReport report = discover(gpu, options);
  std::size_t kernel_stages = 0;
  for (const auto& stage : report.stage_cycles) {
    const bool kernel = stage.stage == "compute.suite" ||
                        stage.stage.ends_with(".bandwidth");
    if (!kernel) continue;
    ++kernel_stages;
    EXPECT_GT(stage.cycles, 0u) << stage.stage;
  }
  EXPECT_GE(kernel_stages, 2u);
}

TEST(StageGraphTelemetry, FailingStageSkipsDependentsAndRethrows) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  StageGraph graph;
  graph.row_order = {Element::kL1};
  bool downstream_ran = false;
  bool independent_ran = false;
  graph.add({"boom", Element::kL1, StageKind::kLatency, {}, false,
             [](StageContext&) { throw std::runtime_error("boom"); }});
  graph.add({"dependent", Element::kL1, StageKind::kLatency, {"boom"}, false,
             [&](StageContext&) { downstream_ran = true; }});
  graph.add({"independent", Element::kL1, StageKind::kLatency, {}, false,
             [&](StageContext&) { independent_ran = true; }});
  DiscoveryPlan plan;
  plan.graph = std::move(graph);
  plan.state.element[Element::kL1];
  plan.state.rows[Element::kL1].element = Element::kL1;
  DiscoverOptions options;
  TopologyReport report;
  EXPECT_THROW(run_graph(gpu, plan, options, report), std::runtime_error);
  EXPECT_FALSE(downstream_ran);
  EXPECT_TRUE(independent_ran);
}

}  // namespace
}  // namespace mt4g::core::pipeline
