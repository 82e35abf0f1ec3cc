// Amount benchmark (paper Sec. IV-F, Fig. 3) and the L2 segment-size variant
// (Sec. IV-F1).
//
// Two synchronized cores in one SM/CU chase two distinct arrays sized close
// to the cache capacity: core A warms its array, core B warms a second array
// (landing in core B's cache segment), then core A re-runs timed. If both
// cores share one physical segment, B's warm-up evicted A's array and A
// misses; if B used a different segment, A still hits. B's core index starts
// at 1 and doubles until it exceeds the cores per SM; the first index that
// leaves A's data intact marks the segment boundary and
// amount = cores_per_sm / core_b.
#pragma once

#include <cstdint>
#include <vector>

#include "core/target.hpp"
#include "sim/gpu.hpp"

namespace mt4g::runtime {
struct ReplicaPool;
}

namespace mt4g::core {

struct AmountBenchOptions {
  Target target;
  std::uint64_t cache_bytes = 0;  ///< from the size benchmark
  std::uint32_t stride = 32;      ///< fetch granularity
  /// Pool the probe chases run on (see SizeBenchOptions::chase_pool).
  runtime::ReplicaPool* chase_pool = nullptr;
};

struct AmountBenchResult {
  bool available = true;
  std::uint32_t amount = 1;
  /// (core B index, did core A still hit) per probe, for diagnostics/Fig. 3.
  std::vector<std::pair<std::uint32_t, bool>> probes;
  std::uint64_t cycles = 0;
};

AmountBenchResult run_amount_benchmark(sim::Gpu& gpu,
                                       const AmountBenchOptions& options);

/// L2 segment result: segment size benchmark + alignment to the nearest
/// integer fraction of the API-reported total (paper IV-F1).
struct L2SegmentResult {
  bool found = false;
  std::uint32_t segments = 1;
  std::uint64_t segment_bytes = 0;      ///< aligned: api_total / segments
  std::uint64_t measured_bytes = 0;     ///< raw benchmarked segment size
  double confidence = 0.0;  ///< closeness of measured to the aligned fraction
  std::uint64_t cycles = 0;
  std::uint32_t widenings = 0;       ///< from the inner size benchmark
};

/// @param chase_pool pool the inner size benchmark's chases run on (see
///        SizeBenchOptions::chase_pool); nullptr = benchmark-local, serial.
L2SegmentResult run_l2_segment_benchmark(
    sim::Gpu& gpu, std::uint64_t api_total_bytes,
    std::uint32_t fetch_granularity,
    runtime::ReplicaPool* chase_pool = nullptr);

}  // namespace mt4g::core
