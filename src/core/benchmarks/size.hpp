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
// engine: every measured sweep row is kept by array size, widening keeps
// the original step so widened bounds land on the same size grid, and an
// attempt re-measures only the newly exposed edge points plus the points
// stats::screen_outliers flagged as spikes — clean rows are reused as-is.
// Every chase of every phase goes through the chase-plan engine
// (runtime::run_chase_batch): each runs on a reset Gpu replica with a noise
// stream derived from (seed, spec), so the whole benchmark is byte-identical
// for every thread count of the chase pool, and more than one thread fans
// the sweep chases over the pool's executor. Sweep and phase-1 chases
// consume only their recorded latency prefix, so their timed pass is capped
// at the record budget (PChaseConfig::max_timed_steps); the phase-6 `fits`
// chases keep the full pass, which the exact predicate needs.
//
// Phase 6 seeds its bisection bounds from the sweep rows — the nearest
// measured fitting/missing sizes around the change point — so the
// expansion loop's extra chases disappear. Both seeds are still verified
// with full-pass chases before the bisection trusts them; the expansion
// steps remain the fallback when a seed does not verify.
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
// counted exactly as if it ran then, so results, cycles and chase counts
// equal the serial search. Waiting results the chains did not take are
// dropped when the benchmark returns.
// At one or two chase-pool threads nothing runs ahead.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/target.hpp"
#include "sim/gpu.hpp"

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
  /// Pool every chase runs on: its replicas, its chase count, and how its
  /// batches run (ReplicaPool::threads and ::executor, which also bound the
  /// chains' run-ahead). The stage runner passes one per stage, so the
  /// benchmarks of a stage reuse its replicas; nullptr = a benchmark-local
  /// pool, serial.
  runtime::ReplicaPool* chase_pool = nullptr;
  /// Test probe: invoked once per sweep-point chase, after the measurement,
  /// in ascending size order within each attempt. @p remeasured is true when
  /// the point was re-chased because the screening flagged it as a spike.
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
  /// Full-pass chases the phase-6 exact refinement executed (seed checks,
  /// expansion and bisection); seeding the bounds from the sweep rows keeps
  /// this small.
  std::uint32_t exact_chases = 0;
};

SizeBenchResult run_size_benchmark(sim::Gpu& gpu,
                                   const SizeBenchOptions& options);

}  // namespace mt4g::core
