// Fetch-granularity benchmark (paper Sec. IV-D).
//
// Cold p-chase runs with strides growing from 4 B in 4 B steps. While the
// stride is below the fetch granularity, several consecutive loads land in an
// already-fetched sector, so the latency sample mixes hits and misses. Once
// the stride reaches the granularity every load opens a new sector and the
// sample turns unimodal (all misses) — that stride is the fetch granularity.
//
// The per-stride chases are independent cold measurements, so they run as
// one batch through the chase-plan engine (runtime::run_chase_batch): each
// on a reset Gpu replica with a (seed, spec) noise stream, byte-identical
// for every thread count and independent of whatever ran on the Gpu before.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/target.hpp"
#include "sim/gpu.hpp"

namespace mt4g::runtime {
struct ReplicaPool;
}

namespace mt4g::core {

struct FgBenchOptions {
  Target target;
  std::uint64_t min_array_bytes = 1024;
  /// Pool the stride chases run on (see SizeBenchOptions::chase_pool).
  runtime::ReplicaPool* chase_pool = nullptr;
};

struct FgBenchResult {
  bool found = false;
  std::uint32_t granularity = 0;
  /// stride -> was the latency sample mixed (hits and misses)?
  std::vector<std::pair<std::uint32_t, bool>> mixed_by_stride;
  std::uint64_t cycles = 0;
};

FgBenchResult run_fg_benchmark(sim::Gpu& gpu, const FgBenchOptions& options);

/// Classifies one latency sample: true when both hits and misses are present
/// (more than noise-level counts above `floor + gap`).
bool sample_is_mixed(std::span<const std::uint32_t> latencies, double floor,
                     double gap = 40.0);

}  // namespace mt4g::core
