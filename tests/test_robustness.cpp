// Robustness tests:
//  * discovery correctness under elevated measurement noise (the disturbance
//    regime the paper's K-S/outlier machinery exists for),
//  * the configurable NVIDIA L2 fetch granularity (paper Sec. IV-D:
//    cudaDeviceSetLimit), which the FG benchmark must track. A device
//    configured to another granularity is a spec with that L2 sector size.
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "core/benchmarks/fetch_granularity.hpp"
#include "core/benchmarks/size.hpp"
#include "core/target.hpp"
#include "sim/gpu.hpp"
#include "sim/registry.hpp"
#include "sim/spec_io.hpp"

namespace mt4g::core {
namespace {

using sim::Element;

sim::NoiseParams harsh_noise() {
  sim::NoiseParams noise;
  noise.jitter_max = 6;            // 3x the default jitter
  noise.spike_probability = 0.01;  // 20x the default outlier rate
  noise.spike_min = 150;
  noise.spike_max = 600;
  return noise;
}

TEST(Robustness, SizeBenchmarkSurvivesHarshNoise) {
  // 1% outlier spikes and tripled jitter: the reduction + despiking + K-S
  // pipeline must still land on the exact capacity.
  for (const std::uint64_t seed : {3ull, 17ull, 2026ull}) {
    sim::Gpu gpu(sim::registry_get("TestGPU-NV"), seed, std::nullopt,
                 harsh_noise());
    SizeBenchOptions options;
    options.target = target_for(sim::Vendor::kNvidia, Element::kL1);
    options.lower = 512;
    options.upper = 64 * KiB;
    options.stride = 32;
    const auto result = run_size_benchmark(gpu, options);
    ASSERT_TRUE(result.found) << "seed " << seed;
    EXPECT_EQ(result.exact_bytes, 4 * KiB) << "seed " << seed;
  }
}

TEST(Robustness, FgBenchmarkSurvivesHarshNoise) {
  sim::Gpu gpu(sim::registry_get("H100-80"), 11, std::nullopt, harsh_noise());
  FgBenchOptions options;
  options.target = target_for(sim::Vendor::kNvidia, Element::kL1);
  const auto result = run_fg_benchmark(gpu, options);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.granularity, 32u);
}

TEST(Robustness, ConfidenceReflectsNoiseLevel) {
  auto run_with = [](const sim::NoiseParams& noise) {
    sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42, std::nullopt, noise);
    SizeBenchOptions options;
    options.target = target_for(sim::Vendor::kNvidia, Element::kL1);
    options.lower = 512;
    options.upper = 64 * KiB;
    options.stride = 32;
    return run_size_benchmark(gpu, options);
  };
  const auto clean = run_with(sim::NoiseParams{});
  const auto harsh = run_with(harsh_noise());
  ASSERT_TRUE(clean.found);
  ASSERT_TRUE(harsh.found);
  EXPECT_GE(clean.confidence, harsh.confidence - 1e-9);
}

/// A copy of built-in @p model whose L2 sectors are @p sector_bytes: the
/// device as it runs with that L2 fetch granularity configured.
sim::GpuSpec with_l2_sector(const std::string& model,
                            std::uint32_t sector_bytes) {
  sim::GpuSpec spec = sim::registry_get(model);
  spec.elements.at(Element::kL2).sector_bytes = sector_bytes;
  return spec;
}

TEST(L2FetchGranularity, BenchmarkReadsTheSpecSectorSize) {
  // H100's datasheet L2 granularity is 32 B; at 64 B and 128 B the FG
  // benchmark must track the device, not the datasheet.
  for (const std::uint32_t configured : {32u, 64u, 128u}) {
    const sim::GpuSpec spec = with_l2_sector("H100-80", configured);
    ASSERT_TRUE(sim::validate_spec(spec).empty()) << configured;
    sim::Gpu gpu(spec, 42);
    FgBenchOptions options;
    options.target = target_for(sim::Vendor::kNvidia, Element::kL2);
    const auto result = run_fg_benchmark(gpu, options);
    ASSERT_TRUE(result.found) << configured;
    EXPECT_EQ(result.granularity, configured);
  }
}

TEST(L2FetchGranularity, SizeBenchmarkExactAtA64ByteSector) {
  const sim::GpuSpec spec = with_l2_sector("TestGPU-NV", 64);
  ASSERT_TRUE(sim::validate_spec(spec).empty());
  sim::Gpu gpu(spec, 42);
  SizeBenchOptions options;
  options.target = target_for(sim::Vendor::kNvidia, Element::kL2);
  options.lower = 4 * KiB;
  options.upper = 128 * KiB;
  options.stride = 64;  // the sector size
  const auto result = run_size_benchmark(gpu, options);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.exact_bytes, 32 * KiB);  // one partition
}

}  // namespace
}  // namespace mt4g::core
