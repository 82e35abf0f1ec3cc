#include "core/benchmarks/latency.hpp"

#include <algorithm>
#include <span>

#include "common/units.hpp"
#include "runtime/batch.hpp"

namespace mt4g::core {
namespace {

/// Latencies stored per chase.
constexpr std::uint32_t kRecordCount = 256;
/// Independent chases pooled into one sample. Small caches cap the array
/// below kRecordCount loads, where a single noise outlier moves the mean by
/// several percent; pooling a few independent streams keeps the headline
/// mean stable across seeds.
constexpr std::uint32_t kResamples = 4;

}  // namespace

LatencyBenchResult run_latency_benchmark(sim::Gpu& gpu,
                                         const LatencyBenchOptions& options) {
  LatencyBenchResult out;
  runtime::PChaseConfig config;
  config.space = options.target.space;
  config.flags = options.target.flags;
  config.stride_bytes = options.fetch_granularity;
  config.array_bytes = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(256) * options.fetch_granularity,
      options.min_array_bytes);
  if (options.cache_bytes != 0) {
    // Stay within ~3/4 of the capacity so the timed pass hits the target.
    const std::uint64_t cap = std::max<std::uint64_t>(
        round_down(options.cache_bytes - options.cache_bytes / 4,
                   options.fetch_granularity),
        static_cast<std::uint64_t>(options.fetch_granularity) * 8);
    config.array_bytes = std::min(config.array_bytes, cap);
  }
  config.base = gpu.alloc(config.array_bytes, 256);
  config.record_count = kRecordCount;
  config.warmup = !options.cold;  // replicas start flushed, so cold = no warmup

  // Pool a few independent chases (fresh streams via the resample index):
  // the summary spans all recorded latencies in spec order, and the hit
  // fraction pools the served_by counts of every timed pass.
  std::vector<runtime::ChaseSpec> specs;
  for (std::uint32_t i = 0; i < kResamples; ++i) {
    config.resample = i;
    specs.push_back(runtime::ChaseSpec::plain(config));
  }
  const auto results =
      runtime::run_chase_batch(gpu, specs, options.chase_pool);

  std::vector<std::uint32_t> pooled;
  runtime::PChaseResult combined;
  for (const auto& result : results) {
    pooled.insert(pooled.end(), result.latencies.begin(),
                  result.latencies.end());
    combined.timed_loads += result.timed_loads;
    for (std::size_t i = 0; i < sim::kElementCount; ++i) {
      const auto element = static_cast<sim::Element>(i);
      combined.served_by[element] += result.served_by.at(element);
    }
    out.cycles += result.total_cycles;
  }
  out.summary = stats::summarize(std::span<const std::uint32_t>(pooled));
  out.headline = stats::fenced_mean(pooled);
  out.hit_fraction_in_target =
      hit_fraction(combined, options.target.element);
  return out;
}

LatencyBenchResult run_scratchpad_latency(sim::Gpu& gpu, std::uint32_t count) {
  LatencyBenchResult out;
  // The summary spans every load of the chase: pass the record budget
  // explicitly instead of relying on the kernel's default being large
  // enough (the kernel truncates like the p-chase timed pass).
  const auto result = runtime::run_scratchpad_chase(gpu, count, count);
  out.summary =
      stats::summarize(std::span<const std::uint32_t>(result.latencies));
  out.headline =
      stats::fenced_mean(std::span<const std::uint32_t>(result.latencies));
  out.hit_fraction_in_target = 1.0;
  out.cycles = result.total_cycles;
  return out;
}

}  // namespace mt4g::core
