// Cache-size benchmark (paper Sec. IV-B).
//
// Workflow, exactly as the paper describes:
//   (1) identify a narrow search interval: exponential doubling from the
//       lower bound until the latency jumps, then binary-search narrowing;
//   (2) p-chase sweep across the interval, stepping by the fetch granularity
//       (coarsened only when the interval would need more sweep points than
//       max_sweep_points);
//   (3) outlier screening on the reduced series; widen the interval and
//       re-measure when a level shift touches the interval edge;
//   (4) Eq.-2 reduction + K-S change-point detection with a confidence value.
// After the K-S decision we refine the boundary to fetch-granularity
// resolution with a bisection on the "any timed load fell through" predicate
// — the same observable, pushed to its exact edge.
//
// The sweep (phases 2-3 and the phase-5 refinement) runs on an incremental
// engine: every measured sweep point is memoized by array size, widening
// keeps the original step so widened bounds land on the same size grid, and
// an attempt re-measures only the newly exposed edge points plus the points
// stats::screen_outliers flagged as spikes — clean rows are reused as-is.
// Every chase of every phase goes through the chase-plan engine
// (runtime::run_chase_batch): each runs on a reset Gpu replica with a noise
// stream derived from (seed, spec), so the whole benchmark is byte-identical
// for every sweep_threads value, and sweep_threads > 1 fans the sweep chases
// over the shared executor. Sweep and phase-1 chases consume only their
// recorded latency prefix, so their timed pass is capped at the record
// budget (PChaseConfig::max_timed_steps); the phase-6 `fits` chases keep the
// full pass, which the exact predicate needs.
//
// Because chases are pure functions of (seed, spec), the ReplicaPool memo
// makes repeated specs free on the host: a phase-1 probe that lands on the
// sweep grid, or a refinement point that coincides with the coarse grid, is
// not simulated again (it still books the cycles of the re-run the real
// tool makes). Phase 6 additionally seeds its bisection bounds
// from the sweep rows — the nearest measured fitting/missing sizes around
// the change point — so the expansion loop's extra chases disappear (both
// seeds are still verified with full-pass chases before the bisection
// trusts them).
//
// Phases 1/1b and 6 are serial predicate chains: each probe depends on the
// previous verdict, so no batch of them can fan out. With at least three
// participants available (runtime::batch_participants) the benchmark runs
// each chain ahead instead: before a probe it has not measured yet, it
// hands runtime::run_chase_ahead that probe plus every probe the next
// levels of the chain may need, as many levels as the participants can run
// at once: the midpoint plus both quarter points at three to six
// participants, three levels (seven probes) at seven to 14. The needed probe
// always runs; the others run only on participants idle meanwhile. The
// commit rule keeps the result serial: every probe is still chased
// through run_chase_batch in serial order, and one found waiting is
// memoized and recorded in the warm ledger exactly as if it ran then, so
// results, cycles and memo statistics equal the serial search. Waiting
// results the chains did not take are dropped when the benchmark returns.
// At one or two sweep threads nothing runs ahead.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/target.hpp"
#include "sim/gpu.hpp"

namespace mt4g::exec {
class Executor;
}

namespace mt4g::runtime {
struct ReplicaPool;
}

namespace mt4g::core {

struct SizeBenchOptions {
  Target target;
  std::uint64_t lower = 1024;            ///< initial search space lower bound
  std::uint64_t upper = 1024 * 1024;     ///< initial search space upper bound
  std::uint32_t stride = 32;             ///< fetch granularity of the element
  std::uint32_t record_count = 512;      ///< latencies stored per p-chase run
  std::uint32_t max_sweep_points = 48;   ///< cap on sizes per sweep (initial
                                         ///< grid; widenings add edge points)
  /// Cap for the phase-5 refinement sweep. The refinement only has to pull
  /// the K-S estimate close enough that the phase-6 bisection starts near
  /// the boundary — the bisection delivers the exact edge — so it needs far
  /// fewer points than the coarse sweep (whose density feeds the K-S power).
  std::uint32_t refine_sweep_points = 16;
  std::uint32_t max_widenings = 3;       ///< outlier-triggered re-measurements
  /// Parallelism of the sweep-point measurements and of the chains' run-
  /// ahead, caller included; 1 = the serial reference engine. Both produce
  /// byte-identical results.
  std::uint32_t sweep_threads = 1;
  /// Executor for sweep_threads > 1; nullptr = exec::shared_executor().
  /// Tests inject a dedicated pool here to force real thread interleaving
  /// regardless of the host's core count.
  exec::Executor* sweep_executor = nullptr;
  /// Replica + chase-memo cache shared with the caller (the collectors pass
  /// one per discovery, so benchmarks reuse replicas and memoized chases
  /// across each other); nullptr = a benchmark-local pool.
  runtime::ReplicaPool* chase_pool = nullptr;
  /// Seed the phase-6 bisection bounds from the sweep rows' prefix hit
  /// fractions (nearest measured fitting/missing sizes). Off = the original
  /// expand-then-bisect path; the flag exists so tests can compare the two
  /// paths' chase counts.
  bool phase6_bounds_from_sweep = true;
  /// Test probe: invoked once per sweep-point chase, after the measurement,
  /// in ascending size order within each attempt. @p remeasured is true when
  /// the point was re-chased because the screening flagged it as a spike.
  /// Points answered from the chase memo (e.g. a refinement point that
  /// coincides with the coarse grid) execute no chase and skip the probe.
  std::function<void(std::uint64_t size, bool remeasured)> sweep_probe;
  sim::Placement where{};
};

struct SizeBenchResult {
  bool found = false;
  std::uint64_t detected_bytes = 0;  ///< K-S change-point estimate
  std::uint64_t exact_bytes = 0;     ///< bisection-refined boundary
  double confidence = 0.0;           ///< 1 - p of the winning K-S split
  bool upper_bound_hit = false;      ///< no miss up to `upper` (">upper")
  /// Phase 6 could not establish fits(fit_lo): the downward expansion
  /// bottomed out at `lower` with no fitting size, so exact_bytes fell back
  /// to detected_bytes (the K-S estimate) instead of reporting `lower`.
  bool exact_fallback = false;
  std::uint32_t widenings = 0;       ///< outlier-triggered re-measurements
  std::vector<std::uint64_t> sweep_sizes;  ///< final sweep (Fig. 2 x-axis)
  std::vector<double> reduced;             ///< Eq.-2 values (Fig. 2 y-axis)
  std::uint64_t cycles = 0;          ///< simulated GPU cycles consumed
  /// Full-pass chases the phase-6 exact refinement executed (expansion +
  /// bisection); the bounds-from-sweep seeding exists to shrink this.
  std::uint32_t exact_chases = 0;
};

SizeBenchResult run_size_benchmark(sim::Gpu& gpu,
                                   const SizeBenchOptions& options);

}  // namespace mt4g::core
