// Cache-line-size benchmark (paper Sec. IV-E).
//
// Premise: the size benchmark's miss cliff assumes the p-chase step stays
// below the line size. Stepping past the line size skips whole lines, so the
// cache "appears larger" and the miss cliff moves right. We sweep array sizes
// just above the known cache size for p-chase strides above the fetch
// granularity (the line is at least one sector, so sub-granularity strides
// carry no line-size signal — and on a stacked hierarchy like Const L1 ->
// Const L1.5 they pick up hits from the level above the benchmarked cache,
// which would corrupt the shared hit-level floor — so they are not measured
// at all):
//   * strides <= line keep the full miss score (pivot-like);
//   * strides at non-power-of-two line multiples shift the cliff beyond the
//     sweep window and the score collapses (MAX-like);
//   * strides at power-of-two line multiples alias into a subset of the
//     cache sets, so their apparent capacity snaps back — the "aliased
//     outliers" the paper's heuristics must survive.
// The detector therefore scores every stride, normalises between the pivot
// and the best-behaved large stride, takes the first stride whose score
// drops below the midpoint (~1.5x the line size), and snaps down to the
// nearest power of two — the paper's final assumption.
//
// Execution model: the (stride, array size) grid points are independent
// measurements, so they run as one batch through the chase-plan engine
// (runtime::run_chase_batch) — each on a reset Gpu replica with a
// (seed, spec) noise stream, byte-identical for every thread count. The
// scores consume only the recorded latency prefix, so every chase caps its
// timed pass at the record budget.
#pragma once

#include <cstdint>
#include <vector>

#include "core/target.hpp"
#include "sim/gpu.hpp"

namespace mt4g::runtime {
struct ReplicaPool;
}

namespace mt4g::core {

struct LineSizeBenchOptions {
  Target target;
  std::uint64_t cache_bytes = 0;       ///< from the size benchmark
  std::uint32_t fetch_granularity = 32;
  /// Pool the grid chases run on (see SizeBenchOptions::chase_pool).
  runtime::ReplicaPool* chase_pool = nullptr;
  /// Probe only two adjacent mid-window array sizes per stride (1.4x/1.5x
  /// the size-sweep boundary in cache_bytes) instead of the full size grid.
  /// Per stride the two points must vote the same side of the miss-majority
  /// line; any split vote — or a contrast too low to score — falls back to
  /// the exhaustive grid, which measures the probed points again, as the
  /// real tool would. The grid sizes are identical in both modes.
  bool adaptive = true;
};

struct LineSizeBenchResult {
  bool found = false;
  std::uint32_t line_bytes = 0;
  double confidence = 0.0;
  /// stride -> normalised miss score in [0,1] (1 = pivot-like, 0 = MAX-like)
  std::vector<std::pair<std::uint32_t, double>> scores;
  std::uint64_t cycles = 0;
  /// The two-point probe produced the final result.
  bool adaptive = false;
  /// The probe ran but disagreed (or lacked contrast): full grid used.
  bool adaptive_fallback = false;
};

LineSizeBenchResult run_line_size_benchmark(
    sim::Gpu& gpu, const LineSizeBenchOptions& options);

}  // namespace mt4g::core
