// Shared stage factories: the benchmark-option blocks that were repeated
// near-identically across collector_nvidia.cpp and collector_amd.cpp, once.
//
// A FirstLevelPlan describes one first-level cache (NVIDIA L1 / Texture /
// ReadOnly / Constant L1, AMD vL1 / sL1d) and expands into its
// fg -> size -> {latency, line-size} stage chain; the amount stage is added
// separately (NVIDIA runs it for every first-level cache, AMD only for
// vL1). The option builders are exposed individually for the stages that
// need custom wiring (the constant L1.5 hierarchy, the L2 complex).
#pragma once

#include <cstdint>

#include "core/benchmarks/amount.hpp"
#include "core/benchmarks/fetch_granularity.hpp"
#include "core/benchmarks/latency.hpp"
#include "core/benchmarks/line_size.hpp"
#include "core/benchmarks/size.hpp"
#include "core/pipeline/context.hpp"
#include "core/pipeline/runner.hpp"
#include "core/pipeline/stage.hpp"
#include "core/target.hpp"

namespace mt4g::core::pipeline {

/// One first-level cache's benchmark parameters.
struct FirstLevelPlan {
  sim::Vendor vendor = sim::Vendor::kNvidia;
  sim::Element element = sim::Element::kL1;
  /// Stage-name prefix, e.g. "L1": the chain's stages are "L1.fg",
  /// "L1.size", "L1.latency", "L1.line" and "L1.amount".
  std::string prefix;
  std::uint64_t size_lower = 1024;    ///< size-benchmark search bounds
  std::uint64_t size_upper = 1024 * 1024;
  std::uint64_t latency_min_array = 0;
  std::uint32_t fg_fallback = 32;     ///< stride when no unimodal stride found
  /// Report ">upper" when the sweep hit the bound without a miss cliff
  /// (NVIDIA behaviour); AMD reports a plain "no change point".
  bool report_upper_bound = true;
};

/// Creates the blackboard entry and row skeleton of one element, and puts
/// the element next in the report's row order.
MemoryElementReport& add_row(DiscoveryPlan& plan, sim::Element element);

// --- Option-block builders (each books nothing; callers book). -------------

FgBenchOptions make_fg_options(StageContext& ctx, const Target& target);
SizeBenchOptions make_size_options(StageContext& ctx, const Target& target,
                                   std::uint64_t lower, std::uint64_t upper,
                                   std::uint32_t stride);
LatencyBenchOptions make_latency_options(StageContext& ctx,
                                         const Target& target,
                                         std::uint32_t fetch_granularity,
                                         std::uint64_t min_array_bytes,
                                         std::uint64_t cache_bytes);
LineSizeBenchOptions make_line_options(StageContext& ctx, const Target& target,
                                       std::uint64_t cache_bytes,
                                       std::uint32_t fetch_granularity);
AmountBenchOptions make_amount_options(StageContext& ctx, const Target& target,
                                       std::uint64_t cache_bytes,
                                       std::uint32_t stride);

/// Attribute for a line-size result ("inconclusive" when not found).
Attribute line_size_attribute(const LineSizeBenchResult& line);

/// Runs a size benchmark: books cycles + sweep telemetry, records the
/// series when requested, and returns the result for row handling.
SizeBenchResult run_size_stage(StageContext& ctx, sim::Element element,
                               const SizeBenchOptions& options);

/// Adds the fg -> size -> {latency, line} chain of one first-level cache.
void add_first_level_stages(StageGraph& graph, const FirstLevelPlan& plan);

/// Adds the amount stage of one first-level cache (depends on its size).
void add_amount_stage(StageGraph& graph, const FirstLevelPlan& plan);

/// Adds a stream-kernel bandwidth stage (L2 / L3 / device memory).
/// @param bytes data volume; 0 = 4x the element capacity.
void add_bandwidth_stage(StageGraph& graph, const std::string& prefix,
                         sim::Element element, std::uint64_t bytes);

/// Adds a scratchpad (Shared Memory / LDS) latency stage.
void add_scratchpad_stage(StageGraph& graph, const std::string& prefix,
                          sim::Element element);

/// Adds the cold device-memory latency stage (every load falls through).
void add_device_latency_stage(StageGraph& graph, sim::Vendor vendor,
                              std::uint32_t fetch_granularity);

/// Adds the opt-in per-dtype compute-capability suite (full runs only).
void add_compute_stage(StageGraph& graph);

}  // namespace mt4g::core::pipeline
