#include "core/benchmarks/amount.hpp"

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "sim/registry.hpp"

namespace mt4g::core {
namespace {

using sim::Element;

TEST(AmountBenchmark, DetectsTwoL1SegmentsPerSm) {
  // TestGPU-NV models the paper Fig. 3 top case: two isolated L1 segments.
  const sim::GpuSpec& spec = sim::registry_get("TestGPU-NV");
  sim::Gpu gpu(spec, 42);
  AmountBenchOptions options;
  options.target = target_for(spec.vendor, Element::kL1);
  options.cache_bytes = 4 * KiB;
  options.stride = 32;
  const auto r = run_amount_benchmark(gpu, options);
  EXPECT_EQ(r.amount, 2u);
  // Probes below the segment boundary must have evicted (miss); the first
  // hit appears at core 8 (16 cores / 2 segments).
  for (const auto& [core_b, hit] : r.probes) {
    EXPECT_EQ(hit, core_b >= 8) << "core_b " << core_b;
  }
}

TEST(AmountBenchmark, SingleSegmentCachesReportOne) {
  const sim::GpuSpec& spec = sim::registry_get("H100-80");
  sim::Gpu gpu(spec, 42);
  AmountBenchOptions options;
  options.target = target_for(spec.vendor, Element::kL1);
  options.cache_bytes = spec.at(Element::kL1).size_bytes;
  options.stride = 32;
  const auto r = run_amount_benchmark(gpu, options);
  EXPECT_EQ(r.amount, 1u);  // paper Table III: 1 per SM
}

TEST(AmountBenchmark, AmdVl1SingleInstancePerCu) {
  const sim::GpuSpec& spec = sim::registry_get("TestGPU-AMD");
  sim::Gpu gpu(spec, 42);
  AmountBenchOptions options;
  options.target = target_for(spec.vendor, Element::kVL1);
  options.cache_bytes = 2 * KiB;
  options.stride = 64;
  EXPECT_EQ(run_amount_benchmark(gpu, options).amount, 1u);
}

TEST(AmountBenchmark, RequiresCacheSize) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  AmountBenchOptions options;
  options.target = target_for(sim::Vendor::kNvidia, Element::kL1);
  EXPECT_THROW(run_amount_benchmark(gpu, options), std::invalid_argument);
}

TEST(AmountBenchmark, TinyCacheReportsUnavailableInsteadOfThrowing) {
  // A cache smaller than ~one stride (e.g. a small constL1 probed at a
  // coarse fetch granularity) used to produce array_bytes == 0 and abort the
  // whole discovery via the p-chase validation.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  AmountBenchOptions options;
  options.target = target_for(sim::Vendor::kNvidia, Element::kConstL1);
  options.cache_bytes = 1 * KiB;
  options.stride = 2048;  // > 7/8 of the cache
  AmountBenchResult result;
  ASSERT_NO_THROW(result = run_amount_benchmark(gpu, options));
  EXPECT_FALSE(result.available);
  EXPECT_TRUE(result.probes.empty());
}

TEST(AmountBenchmark, AllocatesArraysOnceNotPerProbe) {
  // Per-probe allocations grew the simulated heap with every probe, making
  // addresses (and therefore set mapping) depend on probe order.
  const sim::GpuSpec& spec = sim::registry_get("TestGPU-NV");
  sim::Gpu gpu(spec, 42);
  AmountBenchOptions options;
  options.target = target_for(spec.vendor, Element::kL1);
  options.cache_bytes = 4 * KiB;
  options.stride = 32;
  const std::uint64_t before = gpu.alloc(1, 256);
  run_amount_benchmark(gpu, options);
  const std::uint64_t after = gpu.alloc(1, 256);
  // 7/8 of 4 KiB, stride-aligned, 256-byte allocation granularity: exactly
  // two arrays regardless of how many probes ran.
  const std::uint64_t array_alloc = round_up(3584, 256);
  EXPECT_EQ(after - before, 256 + 2 * array_alloc);
}

TEST(L2SegmentBenchmark, H100FindsTwoPartitions) {
  // Paper Table III: MT4G reports 2 L2 partitions on H100 (2 x 25 MB).
  sim::Gpu gpu(sim::registry_get("H100-80"), 42);
  const auto r = run_l2_segment_benchmark(gpu, 50 * MiB, 32);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.segments, 2u);
  EXPECT_EQ(r.segment_bytes, 25 * MiB);
  EXPECT_GT(r.confidence, 0.95);
}

TEST(L2SegmentBenchmark, TestGpuFindsTwoPartitions) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto r = run_l2_segment_benchmark(gpu, 64 * KiB, 32);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.segments, 2u);
  EXPECT_EQ(r.segment_bytes, 32 * KiB);
}

TEST(L2SegmentBenchmark, UnifiedL2ReportsOneSegment) {
  // V100's 6 MB L2 is not partitioned.
  sim::Gpu gpu(sim::registry_get("V100"), 42);
  const auto r = run_l2_segment_benchmark(gpu, 6 * MiB, 32);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.segments, 1u);
  EXPECT_EQ(r.segment_bytes, 6 * MiB);
}

TEST(L2SegmentBenchmark, RejectsMissingApiSize) {
  sim::Gpu gpu(sim::registry_get("V100"), 42);
  EXPECT_THROW(run_l2_segment_benchmark(gpu, 0, 32), std::invalid_argument);
}

}  // namespace
}  // namespace mt4g::core
