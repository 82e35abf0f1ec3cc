// The stage-graph executor: runs ready stages concurrently and assembles
// the TopologyReport deterministically.
//
// Scheduling model: min(bench_threads, stage count) workers — the calling
// thread included — pull ready stages (all dependencies completed, lowest
// declaration index first) from a shared queue. One worker therefore runs
// the stages in deterministic topological order, inline on the caller,
// without touching any executor; more run on the process-wide executor
// (src/exec/, or DiscoverOptions::bench_executor). Nested parallelism
// composes: a stage's own chase batches (sweep_threads) fan over the same
// executor, and a fleet sweep fans whole graphs of different GPUs over it,
// so one executor interleaves stages across benchmarks and across GPUs. A
// worker with no ready stage never parks while a queued chase batch has
// claimable work: it waits in Executor::help_until, running chase tasks
// until a stage is ready or the graph drained.
//
// Determinism: the report is byte-identical for every bench_threads x
// sweep_threads combination (see stage.hpp for the two rules). Failure
// handling follows the executor's convention: every runnable stage still
// runs, stages downstream of a failed stage are skipped, and the exception
// of the lowest-declaration-index failing stage is rethrown afterwards — so
// the error a caller observes is independent of scheduling.
#pragma once

#include "core/collector.hpp"
#include "core/pipeline/context.hpp"
#include "core/pipeline/stage.hpp"
#include "core/report.hpp"

namespace mt4g::core::pipeline {

/// A buildable discovery: the validated stage table plus the pre-created
/// blackboard (rows seeded with their API-provenance attributes).
struct DiscoveryPlan {
  StageGraph graph;
  GraphState state;
};

/// The vendor stage tables (stages_nvidia.cpp / stages_amd.cpp): every
/// benchmark of the suite as data, validated before returning. @p gpu is
/// only read (spec + device APIs) to decide which stages exist.
DiscoveryPlan nvidia_stages(sim::Gpu& gpu, const DiscoverOptions& options);
DiscoveryPlan amd_stages(sim::Gpu& gpu, const DiscoverOptions& options);

/// Prunes plan.graph to options.only (+ transitive dependencies), executes
/// the graph against @p gpu, and merges rows, bookings, per-stage cycles,
/// critical path and chase counts into @p report in declaration order.
void run_graph(sim::Gpu& gpu, DiscoveryPlan& plan,
               const DiscoverOptions& options, TopologyReport& report);

}  // namespace mt4g::core::pipeline
