// Load-latency benchmark (paper Sec. IV-C).
//
// Four independent p-chases (256 latencies recorded each) over a fixed
// array of 256 * fetch_granularity bytes, targeted at a specific memory
// element. Lower levels are avoided either with bypass bits (.cg / GLC) or,
// for Const L1.5, by sizing the array beyond the Const L1 capacity so the
// warm-up evicts it. Device memory is measured cold (flushed caches, no
// warm-up) so every load falls through. The mean is the headline value; the
// full Summary (p50/p95/stddev...) is reported alongside.
#pragma once

#include <cstdint>

#include "core/target.hpp"
#include "sim/gpu.hpp"
#include "stats/descriptive.hpp"

namespace mt4g::runtime {
struct ReplicaPool;
}

namespace mt4g::core {

struct LatencyBenchOptions {
  Target target;
  std::uint32_t fetch_granularity = 32;
  /// Array floor, used for Const L1.5 to guarantee Const L1 thrashing.
  std::uint64_t min_array_bytes = 0;
  /// Capacity of the benchmarked cache when known (from the size benchmark):
  /// the fixed array is capped below it so the warm chase actually hits. The
  /// real tool relies on 256 * fetch_granularity fitting; on small caches
  /// (e.g. a 1-2 KiB constant/sL1d cache) the cap is what keeps that true.
  std::uint64_t cache_bytes = 0;
  /// Cold measurement: flush all caches and skip the warm-up pass.
  bool cold = false;
  /// Pool the resample chases run on (see SizeBenchOptions::chase_pool).
  /// The chases run through the chase-plan engine either way — each on a
  /// reset replica with a (seed, spec) noise stream — so the measurement is
  /// independent of whatever ran on the Gpu before it.
  runtime::ReplicaPool* chase_pool = nullptr;
};

struct LatencyBenchResult {
  /// Headline load latency: the outlier-fenced mean (stats::fenced_mean) of
  /// the pooled samples — stable across noise seeds where the raw mean of a
  /// small sample is not. The full distribution is in `summary`.
  double headline = 0.0;
  stats::Summary summary;         ///< over the recorded per-load latencies
  double hit_fraction_in_target = 0.0;  ///< sanity: loads served as intended
  std::uint64_t cycles = 0;
};

LatencyBenchResult run_latency_benchmark(sim::Gpu& gpu,
                                         const LatencyBenchOptions& options);

/// Shared Memory / LDS latency: scratchpads need no targeting machinery.
LatencyBenchResult run_scratchpad_latency(sim::Gpu& gpu,
                                          std::uint32_t count = 256);

}  // namespace mt4g::core
