#include "core/benchmarks/fetch_granularity.hpp"

#include <algorithm>
#include <limits>

#include "runtime/batch.hpp"

namespace mt4g::core {
namespace {

/// Give-up bound: the largest stride measured.
constexpr std::uint32_t kMaxStride = 256;
/// Each stride's array grows to at least this many loads, so every sample
/// stays usable.
constexpr std::uint32_t kMinLoads = 64;
/// Latencies stored per stride run (p-chase truncation semantics: runs
/// shorter than the budget record every load).
constexpr std::uint32_t kRecordCount = 512;

}  // namespace

bool sample_is_mixed(std::span<const std::uint32_t> latencies, double floor,
                     double gap) {
  if (latencies.empty()) return false;
  std::size_t high = 0;
  for (std::uint32_t v : latencies) {
    if (static_cast<double>(v) > floor + gap) ++high;
  }
  const double fraction =
      static_cast<double>(high) / static_cast<double>(latencies.size());
  // Outlier spikes can push a handful of samples high even in a unimodal
  // run; genuine hit/miss mixes involve at least a few percent on each side.
  return fraction > 0.02 && fraction < 0.98;
}

FgBenchResult run_fg_benchmark(sim::Gpu& gpu, const FgBenchOptions& options) {
  FgBenchResult out;
  // One chase per stride, all independent cold measurements: one batch. The
  // classifier consumes only the recorded latencies, so every chase caps its
  // timed pass at the record budget.
  std::vector<std::uint32_t> strides;
  std::vector<runtime::ChaseSpec> specs;
  for (std::uint32_t stride = 4; stride <= kMaxStride; stride += 4) {
    runtime::PChaseConfig config;
    config.space = options.target.space;
    config.flags = options.target.flags;
    config.stride_bytes = stride;
    config.array_bytes = std::max<std::uint64_t>(
        options.min_array_bytes,
        static_cast<std::uint64_t>(stride) * kMinLoads);
    config.base = gpu.alloc(config.array_bytes, 256);
    config.record_count = kRecordCount;
    config.max_timed_steps = kRecordCount;
    config.warmup = false;  // granularity only shows on a cold cache
    strides.push_back(stride);
    specs.push_back(runtime::ChaseSpec::plain(config));
  }
  const auto results =
      runtime::run_chase_batch(gpu, specs, options.chase_pool);

  // All runs share the global minimum latency as the hit-level floor, so
  // all-miss runs are not misclassified as unimodal hits.
  double floor = std::numeric_limits<double>::infinity();
  for (const auto& result : results) {
    out.cycles += result.total_cycles;
    for (std::uint32_t v : result.latencies) {
      floor = std::min(floor, static_cast<double>(v));
    }
  }
  for (std::size_t i = 0; i < strides.size(); ++i) {
    const bool mixed = sample_is_mixed(results[i].latencies, floor);
    out.mixed_by_stride.emplace_back(strides[i], mixed);
    if (!mixed && !out.found) {
      out.found = true;
      out.granularity = strides[i];
    }
  }
  return out;
}

}  // namespace mt4g::core
