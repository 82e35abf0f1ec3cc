// The declarative discovery stage graph (paper Sec. V-A, generalised).
//
// The paper's discovery procedure is a dependency-ordered suite of
// microbenchmarks per memory element: fetch granularity feeds the size
// benchmark's stride, the detected size feeds latency/line-size/amount, the
// sharing benchmarks consume every first-level size. Instead of hardcoding
// that walk imperatively, each benchmark invocation is a Stage *value* —
// element, kind, explicit data dependencies, and a run function — and the
// vendor collectors are tables of stages (nvidia_stages() / amd_stages(),
// see stages_nvidia.cpp / stages_amd.cpp) validated at registration time.
//
// A graph executor (runner.hpp) runs ready stages concurrently under
// DiscoverOptions::bench_threads. The determinism contract — the assembled
// TopologyReport is byte-identical for every bench_threads x sweep_threads
// combination — rests on two rules:
//   (1) every stage executes against its own substrate: a Gpu::fork of the
//       owning Gpu that keeps the owner's seed, so allocations, direct
//       chases and batched (seed, spec) noise streams are functions of the
//       stage alone, never of what ran before or beside it;
//   (2) bookings — benchmark counts, stage cycles, chase counts, series —
//       accumulate per stage and merge into the report in stage declaration
//       order after the graph has drained.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace mt4g::core::pipeline {

struct StageContext;

/// What a stage measures. Cycles are attributed per stage, never per kind:
/// a stage's cycles surface as its TopologyReport::stage_cycles entry.
enum class StageKind : std::uint8_t {
  kFetchGranularity,  ///< stride sweep (paper IV-D)
  kSize,              ///< K-S size workflow (IV-B), incl. the L2 segment run
  kLatency,           ///< load latency (IV-C), incl. scratchpad latency
  kLineSize,          ///< cache line size (IV-E)
  kAmount,            ///< per-SM segment count (IV-F)
  kSharing,           ///< physical sharing (IV-G) / CU sharing (IV-H)
  kBandwidth,         ///< stream kernels (IV-I)
  kCompute,           ///< per-dtype FLOPS suite (Sec. VII extension)
};

std::string stage_kind_name(StageKind kind);

/// One benchmark invocation of the discovery suite, as pure data plus a run
/// function. Stages form a DAG via `deps` (names of other stages).
struct Stage {
  /// Unique name, conventionally "<element short name>.<kind>" (e.g.
  /// "L1.size"); dependency edges and diagnostics refer to it.
  std::string name;
  /// The element whose report row this stage feeds; pruning keys on it.
  sim::Element element = sim::Element::kL1;
  StageKind kind = StageKind::kFetchGranularity;
  /// Names of the stages whose outputs this stage reads (graph state writes
  /// happen-before every dependent stage).
  std::vector<std::string> deps;
  /// Stages that only make sense for a full-suite run (NVIDIA physical
  /// sharing, the compute suite): dropped whenever DiscoverOptions::only
  /// restricts discovery, matching the pre-graph collectors.
  bool full_run_only = false;
  /// Executes the benchmark against the stage substrate and records results
  /// into the graph state + bookings (see StageContext).
  std::function<void(StageContext&)> run;
};

/// A validated table of stages plus the element order of the final report.
struct StageGraph {
  std::vector<Stage> stages;
  /// Elements in report-row emission order (the order the imperative
  /// collectors pushed rows in).
  std::vector<sim::Element> row_order;

  void add(Stage stage) { stages.push_back(std::move(stage)); }

  /// Index of a stage by name; npos when absent.
  std::size_t index_of(const std::string& name) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Registration-time validation: throws std::invalid_argument with a
/// diagnostic naming the offending stage(s) on duplicate names, unknown
/// dependencies, self-dependencies, missing run functions, or dependency
/// cycles.
void validate(const StageGraph& graph);

/// Everything the graph executor needs, derived in one pass (the individual
/// helpers below each re-walk the graph; run_graph uses this instead).
/// Construction validates like validate().
struct GraphAnalysis {
  std::vector<std::vector<std::size_t>> deps;  ///< direct dependency indices
  std::vector<std::size_t> order;              ///< deterministic topo order
};
GraphAnalysis analyze(const StageGraph& graph);

/// Deterministic topological execution order: Kahn's algorithm, always
/// releasing the ready stage with the smallest declaration index first.
/// Requires validate() to have passed (throws on cycles like validate).
std::vector<std::size_t> topological_order(const StageGraph& graph);

/// Prunes the graph to the stages of the selected elements plus their
/// transitive dependencies (the generalised --only restriction, paper
/// Sec. V-A); full_run_only stages are dropped. Row emission is restricted
/// separately by the runner — dependency stages of unselected elements
/// still execute but do not surface a row. Empty set = no-op.
void prune(StageGraph& graph, const std::vector<sim::Element>& only);

/// Direct dependency indices per stage (same order as Stage::deps); throws
/// like validate() on unknown or self dependencies.
std::vector<std::vector<std::size_t>> dependency_indices(
    const StageGraph& graph);

/// Transitive dependency closure per stage, as index lists sorted by
/// declaration index. Validates like validate().
std::vector<std::vector<std::size_t>> ancestor_sets(const StageGraph& graph);

}  // namespace mt4g::core::pipeline
