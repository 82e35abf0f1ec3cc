#include "core/benchmarks/amount.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "core/benchmarks/size.hpp"
#include "runtime/batch.hpp"

namespace mt4g::core {

AmountBenchResult run_amount_benchmark(sim::Gpu& gpu,
                                       const AmountBenchOptions& options) {
  if (options.cache_bytes == 0) {
    throw std::invalid_argument("amount benchmark: missing cache size");
  }
  AmountBenchResult out;
  const std::uint32_t cores = gpu.spec().cores_per_sm;
  // Arrays close to the cache size (7/8) guarantee eviction when the two
  // cores land on the same segment, while still fitting one segment alone.
  const std::uint64_t array_bytes =
      round_down(options.cache_bytes - options.cache_bytes / 8,
                 options.stride);
  if (array_bytes < options.stride) {
    // The cache is smaller than ~one stride (e.g. a tiny constL1 probed at a
    // coarse fetch granularity): the two-array eviction pattern cannot be
    // formed. Report unavailable instead of letting the p-chase validation
    // abort the whole discovery.
    out.available = false;
    return out;
  }

  runtime::PChaseConfig config;
  config.space = options.target.space;
  config.flags = options.target.flags;
  config.array_bytes = array_bytes;
  config.stride_bytes = options.stride;
  config.record_count = options.record_count;
  config.where = options.where;
  // Both arrays are allocated once and reused by every probe: per-probe
  // allocations would grow the simulated heap, making set mapping (and hence
  // the observed hit/miss pattern) depend on probe order.
  config.base = gpu.alloc(array_bytes, 256);
  const std::uint64_t base_b = gpu.alloc(array_bytes, 256);

  // The probes are independent A/B/A chases (each runs on a reset replica),
  // so they execute as one batch; the verdict walk below still stops at the
  // first hit, exactly like the serial early-exit loop did. The verdict
  // reads the full-pass served_by classification, so no timed-pass cap.
  std::vector<std::uint32_t> probe_cores;
  std::vector<runtime::ChaseSpec> specs;
  for (std::uint32_t core_b = 1; core_b < cores; core_b *= 2) {
    probe_cores.push_back(core_b);
    specs.push_back(runtime::ChaseSpec::amount(config, core_b, base_b));
  }
  runtime::ChaseBatchOptions batch;
  batch.threads = options.threads;
  batch.executor = options.executor;
  batch.pool = options.chase_pool;
  const auto results = runtime::run_chase_batch(gpu, specs, batch);
  // All probes executed (batched), so all their cycles are booked — also the
  // ones behind an early verdict, which the serial loop never ran.
  for (const auto& result : results) out.cycles += result.total_cycles;

  for (std::size_t i = 0; i < probe_cores.size(); ++i) {
    const bool still_hits =
        hit_fraction(results[i], options.target.element) > 0.5;
    out.probes.emplace_back(probe_cores[i], still_hits);
    if (still_hits) {
      // Core B sits behind a segment boundary: one segment spans core_b
      // cores at most, so the SM holds cores/core_b segments.
      out.amount = cores / probe_cores[i];
      return out;
    }
  }
  out.amount = 1;
  return out;
}

L2SegmentResult run_l2_segment_benchmark(sim::Gpu& gpu,
                                         std::uint64_t api_total_bytes,
                                         std::uint32_t fetch_granularity,
                                         sim::Placement where,
                                         std::uint32_t sweep_threads,
                                         runtime::ReplicaPool* chase_pool) {
  if (api_total_bytes == 0) {
    throw std::invalid_argument("l2 segment benchmark: missing API size");
  }
  L2SegmentResult out;
  SizeBenchOptions size_options;
  size_options.target = target_for(gpu.spec().vendor, sim::Element::kL2);
  size_options.lower = std::max<std::uint64_t>(api_total_bytes / 8, 1024);
  size_options.upper = api_total_bytes + api_total_bytes / 4;
  size_options.stride = fetch_granularity;
  size_options.sweep_threads = sweep_threads;
  size_options.chase_pool = chase_pool;
  size_options.where = where;
  const auto size_result = run_size_benchmark(gpu, size_options);
  out.cycles = size_result.cycles;
  out.widenings = size_result.widenings;
  if (!size_result.found) return out;
  out.measured_bytes = size_result.exact_bytes;

  // The segment count is an integer: align the measured size to the nearest
  // integer fraction of the API total, and report the distance as confidence.
  double best_error = 1.0;
  for (std::uint32_t k = 1; k <= 8; ++k) {
    const double fraction = static_cast<double>(api_total_bytes) / k;
    const double error =
        std::fabs(static_cast<double>(out.measured_bytes) - fraction) /
        fraction;
    if (error < best_error) {
      best_error = error;
      out.segments = k;
      out.segment_bytes = api_total_bytes / k;
    }
  }
  out.found = true;
  out.confidence = 1.0 - best_error;
  return out;
}

}  // namespace mt4g::core
