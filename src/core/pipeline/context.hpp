// Graph state + per-stage booking: what a running stage reads and writes.
//
// The split replaces the old CollectorContext (collector_detail.hpp), which
// accumulated directly into the TopologyReport while the vendor collectors
// walked their element lists serially. Under concurrent stage execution the
// state is divided by synchronisation discipline:
//   * GraphState — the data-flow blackboard. Every entry is created before
//     the graph runs (no rehash/insert races); a stage only reads values its
//     declared dependencies wrote, and the runner's scheduling gives every
//     dependency a happens-before edge to its dependents. Sibling stages of
//     one element write disjoint row fields.
//   * StageContext — the per-stage side: the substrate Gpu, the stage's
//     chase pool and the booking accumulators, merged into the report in
//     declaration order after the graph drains (runner.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/collector.hpp"
#include "core/report.hpp"
#include "runtime/batch.hpp"
#include "sim/gpu.hpp"

namespace mt4g::core::pipeline {

/// Data-flow state of one memory element, written by its fg/size stages and
/// read by every dependent stage of the element (and, for the constant
/// hierarchy and sharing benchmarks, by stages of other elements).
struct ElementState {
  std::uint32_t fg = 0;     ///< detected fetch granularity; 0 = not (yet) run
  std::uint64_t size = 0;   ///< detected capacity in bytes; 0 = not found
};

/// The blackboard shared by all stages of one graph run.
struct GraphState {
  /// Per-element data flow; entries pre-created for every element the graph
  /// mentions, so concurrent access never mutates the map structure.
  std::map<sim::Element, ElementState> element;
  /// Report rows under construction, pre-created with their API-provenance
  /// attributes at build time. Sibling stages write disjoint fields.
  std::map<sim::Element, MemoryElementReport> rows;
  /// AMD sL1d CU-sharing result (one writer stage).
  CuSharingInfo cu_sharing;
  /// NVIDIA: the L2 segment stage publishes the per-segment capacity the
  /// L2 line-size stage sweeps over (API total until the stage runs).
  std::uint64_t l2_segment_bytes = 0;

  ElementState& of(sim::Element e) { return element.at(e); }
  const ElementState& of(sim::Element e) const { return element.at(e); }
  /// Lookup that tolerates absent elements (e.g. the Const L1 state from a
  /// CL1.5 stage on a spec without a Const L1): returns a default state.
  ElementState get(sim::Element e) const {
    const auto it = element.find(e);
    return it == element.end() ? ElementState{} : it->second;
  }
  MemoryElementReport& row(sim::Element e) { return rows.at(e); }
};

/// Deterministic per-stage accounting, merged in declaration order.
struct StageBooking {
  std::uint32_t benchmarks = 0;      ///< -> TopologyReport::benchmarks_executed
  std::uint64_t cycles = 0;          ///< -> stage_cycles, total_cycles
  double seconds = 0.0;              ///< -> simulated_seconds
  std::uint32_t sweep_widenings = 0;
};

/// Everything one running stage touches. Created by the runner per stage.
struct StageContext {
  sim::Gpu& gpu;  ///< stage substrate: fork of the owner, owner's seed
  const DiscoverOptions& options;
  GraphState& state;
  /// Stage-local chase replicas, and the stage's chase count.
  runtime::ReplicaPool& chase_pool;
  StageBooking booking;
  /// Reduction series recorded by this stage (collect_series runs), merged
  /// into TopologyReport::series in declaration order.
  std::vector<SizeSeries> series;
  /// Compute-throughput rows recorded by the compute stage.
  std::vector<ComputeThroughputReport> compute_throughput;

  /// Books one executed microbenchmark and its simulated cycles.
  void book(std::uint64_t cycles) {
    ++booking.benchmarks;
    booking.cycles += cycles;
    booking.seconds +=
        static_cast<double>(cycles) / (gpu.spec().clock_mhz * 1e6);
  }

  /// Books one kernel benchmark measured in simulated seconds (bandwidth
  /// streams, compute suite), converted to cycles at the spec clock.
  void book_kernel_seconds(double seconds) {
    ++booking.benchmarks;
    booking.seconds += seconds;
    booking.cycles += static_cast<std::uint64_t>(
        seconds * gpu.spec().clock_mhz * 1e6 + 0.5);
  }
};

}  // namespace mt4g::core::pipeline
