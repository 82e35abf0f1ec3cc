#include "sim/gpu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/noise.hpp"
#include "sim/registry.hpp"

namespace mt4g::sim {
namespace {

Gpu make_test_nv() { return Gpu(registry_get("TestGPU-NV"), 1); }
Gpu make_test_amd() { return Gpu(registry_get("TestGPU-AMD"), 1); }

TEST(GpuSim, AllocatorReturnsAlignedDisjointRanges) {
  Gpu gpu = make_test_nv();
  const auto a = gpu.alloc(100, 256);
  const auto b = gpu.alloc(100, 256);
  EXPECT_EQ(a % 256, 0u);
  EXPECT_EQ(b % 256, 0u);
  EXPECT_GE(b, a + 100);
  EXPECT_NE(a, 0u);  // address 0 is never handed out
}

TEST(GpuSim, GlobalLoadServedByL1AfterWarmup) {
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  gpu.access({0, 0}, Space::kGlobal, addr);  // cold fill
  const auto r = gpu.access_traced({0, 0}, Space::kGlobal, addr);
  EXPECT_EQ(r.served_by, Element::kL1);
  // Latency near the spec value (30) plus bounded jitter.
  EXPECT_GE(r.latency, 30u);
  EXPECT_LE(r.latency, 30u + 3 + 400);
}

TEST(GpuSim, BypassL1GoesToL2) {
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  AccessFlags cg;
  cg.bypass_l1 = true;
  gpu.access({0, 0}, Space::kGlobal, addr, cg);
  const auto r = gpu.access_traced({0, 0}, Space::kGlobal, addr, cg);
  EXPECT_EQ(r.served_by, Element::kL2);
}

TEST(GpuSim, ColdAccessFallsThroughToDeviceMemory) {
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  const auto r = gpu.access_traced({0, 0}, Space::kGlobal, addr);
  EXPECT_EQ(r.served_by, Element::kDeviceMem);
}

TEST(GpuSim, ConstantChainWalksCl1ThenCl15) {
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  gpu.access({0, 0}, Space::kConstant, addr);  // fills CL1 + CL1.5
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kConstant, addr).served_by,
            Element::kConstL1);
  // Thrash CL1 (1 KiB on the test GPU) with a 2 KiB chase; CL1.5 (8 KiB)
  // still holds everything.
  const auto big = gpu.alloc(2048);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t off = 0; off < 2048; off += 32) {
      gpu.access({0, 0}, Space::kConstant, big + off);
    }
  }
  // After the cyclic pass, the oldest entries are evicted from CL1; a fresh
  // walk is served by CL1.5.
  const auto r = gpu.access_traced({0, 0}, Space::kConstant, big);
  EXPECT_EQ(r.served_by, Element::kConstL15);
}

TEST(GpuSim, SharedMemoryIsFlatLatency) {
  Gpu gpu = make_test_nv();
  const auto r = gpu.access_traced({0, 0}, Space::kShared, 0);
  EXPECT_EQ(r.served_by, Element::kSharedMem);
  EXPECT_GE(r.latency, 25u);
}

TEST(GpuSim, TextureSharesPhysicalCacheWithL1) {
  // TestGPU-NV puts Texture in L1's physical group: a texture warm-up of one
  // array must evict a same-sized global-space array (paper IV-G mechanics).
  Gpu gpu = make_test_nv();
  const std::uint64_t array = 4 * KiB;  // == L1 segment capacity
  const auto a = gpu.alloc(array);
  const auto b = gpu.alloc(array);
  for (std::uint64_t off = 0; off < array; off += 32) {
    gpu.access({0, 0}, Space::kGlobal, a + off);
  }
  for (std::uint64_t off = 0; off < array; off += 32) {
    gpu.access({0, 0}, Space::kTexture, b + off);
  }
  // Array A is gone from the shared physical cache.
  const auto r = gpu.access_traced({0, 0}, Space::kGlobal, a);
  EXPECT_NE(r.served_by, Element::kL1);
}

TEST(GpuSim, ConstantCacheIsPhysicallySeparateFromL1) {
  Gpu gpu = make_test_nv();
  const auto a = gpu.alloc(512);
  const auto b = gpu.alloc(4 * KiB);
  gpu.access({0, 0}, Space::kConstant, a);
  for (std::uint64_t off = 0; off < 4 * KiB; off += 32) {
    gpu.access({0, 0}, Space::kGlobal, b + off);  // saturate L1
  }
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kConstant, a).served_by,
            Element::kConstL1);
}

TEST(GpuSim, CoreSegmentPartitioning) {
  // TestGPU-NV: 16 cores, 2 L1 segments -> cores 0-7 segment 0, 8-15 seg 1.
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  gpu.access({0, 0}, Space::kGlobal, addr);  // fill via core 0
  // Core 7 shares the segment: hit. Core 8 does not: falls through.
  EXPECT_EQ(gpu.access_traced({0, 7}, Space::kGlobal, addr).served_by,
            Element::kL1);
  EXPECT_NE(gpu.access_traced({0, 8}, Space::kGlobal, addr).served_by,
            Element::kL1);
}

TEST(GpuSim, SmsHavePrivateL1s) {
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  gpu.access({0, 0}, Space::kGlobal, addr);
  EXPECT_NE(gpu.access_traced({1, 0}, Space::kGlobal, addr).served_by,
            Element::kL1);
}

TEST(GpuSim, L2SegmentAffinity) {
  // TestGPU-NV has 2 L2 segments over 4 SMs: SM 0/1 -> seg 0, SM 2/3 -> 1.
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  AccessFlags cg;
  cg.bypass_l1 = true;
  gpu.access({0, 0}, Space::kGlobal, addr, cg);
  EXPECT_EQ(gpu.access_traced({1, 0}, Space::kGlobal, addr, cg).served_by,
            Element::kL2);  // same segment
  EXPECT_EQ(gpu.access_traced({2, 0}, Space::kGlobal, addr, cg).served_by,
            Element::kDeviceMem);  // other segment: cold
}

TEST(GpuSim, AmdScalarPathUsesSl1d) {
  Gpu gpu = make_test_amd();
  const auto addr = gpu.alloc(256);
  gpu.access({0, 0}, Space::kScalar, addr);
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kScalar, addr).served_by,
            Element::kSL1D);
}

TEST(GpuSim, AmdSl1dSharedBetweenPairedCusOnly) {
  Gpu gpu = make_test_amd();
  const auto addr = gpu.alloc(256);
  // Logical CU 0 (physical 0) and logical CU 1 (physical 1) share an sL1d.
  gpu.access({0, 0}, Space::kScalar, addr);
  EXPECT_EQ(gpu.access_traced({1, 0}, Space::kScalar, addr).served_by,
            Element::kSL1D);
  // Logical CU 2 (physical 2) has its own (partner fused off): cold there.
  EXPECT_NE(gpu.access_traced({2, 0}, Space::kScalar, addr).served_by,
            Element::kSL1D);
}

TEST(GpuSim, AmdGlobalWalksVl1L2Dram) {
  Gpu gpu = make_test_amd();
  const auto addr = gpu.alloc(256);
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kGlobal, addr).served_by,
            Element::kDeviceMem);
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kGlobal, addr).served_by,
            Element::kVL1);
  AccessFlags glc;
  glc.bypass_l1 = true;
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kGlobal, addr, glc).served_by,
            Element::kL2);
}

TEST(GpuSim, Mi300xL3SitsBetweenL2AndDram) {
  Gpu gpu(registry_get("MI300X"), 1);
  const auto addr = gpu.alloc(512);
  AccessFlags glc;
  glc.bypass_l1 = true;
  // Cold: DRAM. Then the L2 of SM 0's XCD holds it; an SM on another XCD
  // misses its own L2 but hits the chip-wide L3.
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kGlobal, addr, glc).served_by,
            Element::kDeviceMem);
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kGlobal, addr, glc).served_by,
            Element::kL2);
  EXPECT_EQ(gpu.access_traced({300, 0}, Space::kGlobal, addr, glc).served_by,
            Element::kL3);
}

TEST(GpuSim, FlushRestoresColdState) {
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  gpu.access({0, 0}, Space::kGlobal, addr);
  gpu.flush_caches();
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kGlobal, addr).served_by,
            Element::kDeviceMem);
}

TEST(GpuSim, CountersTrackMissesAndReset) {
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  gpu.access({0, 0}, Space::kGlobal, addr);
  EXPECT_GE(gpu.miss_count(0, Element::kL1), 1u);
  EXPECT_GE(gpu.miss_count(0, Element::kDeviceMem), 1u);
  gpu.reset_counters();
  EXPECT_EQ(gpu.miss_count(0, Element::kL1), 0u);
  EXPECT_EQ(gpu.miss_count(0, Element::kDeviceMem), 0u);
}

TEST(GpuSim, MigRestrictsVisibleResources) {
  const GpuSpec& a100 = registry_get("A100");
  Gpu full(a100, 1);
  EXPECT_EQ(full.visible_sms(), 108u);
  EXPECT_EQ(full.single_sm_visible_l2(), 20 * MiB);  // one partition

  Gpu small(a100, 1, a100.mig_profiles.back());  // 1g.5gb
  EXPECT_EQ(small.visible_sms(), 14u);
  EXPECT_EQ(small.single_sm_visible_l2(), 5 * MiB);

  Gpu half(a100, 1, a100.mig_profiles[1]);  // 4g.20gb
  EXPECT_EQ(half.single_sm_visible_l2(), 20 * MiB);  // same as full GPU!
}

TEST(GpuSim, DeterministicForSameSeed) {
  Gpu a = make_test_nv();
  Gpu b = make_test_nv();
  const auto addr_a = a.alloc(4096);
  const auto addr_b = b.alloc(4096);
  for (std::uint64_t off = 0; off < 4096; off += 32) {
    EXPECT_EQ(a.access({0, 0}, Space::kGlobal, addr_a + off),
              b.access({0, 0}, Space::kGlobal, addr_b + off));
  }
}

TEST(GpuSim, OutOfRangeSmThrows) {
  Gpu gpu = make_test_nv();
  EXPECT_THROW(gpu.access({99, 0}, Space::kGlobal, gpu.alloc(64)),
               std::out_of_range);
}

/// @p count access() latencies of one address, the first a cold miss.
std::vector<std::uint32_t> next_latencies(Gpu& gpu, std::uint64_t address,
                                          int count = 64) {
  std::vector<std::uint32_t> latencies;
  for (int i = 0; i < count; ++i) {
    latencies.push_back(gpu.access({0, 0}, Space::kGlobal, address));
  }
  return latencies;
}

TEST(GpuSim, UnrecordedLoadsDrawNoNoise) {
  // A pass draws noise only for the loads it records; the caller charges
  // the others' mean (NoiseModel::mean_noise). So after a 100,000-load pass
  // that records nothing, and after a decided last pass, the next loads
  // read what they read on a fresh twin.
  Gpu gpu = make_test_nv();
  Gpu twin = make_test_nv();
  const std::uint64_t bytes = 16 * KiB;
  const std::uint64_t base = gpu.alloc(bytes);
  const AccessPath path = gpu.compile_path({0, 0}, Space::kGlobal);
  gpu.run_pass(path, base, 32, 100'000);
  gpu.flush_caches();
  EXPECT_EQ(next_latencies(gpu, base), next_latencies(twin, base));

  AccessFlags cg;
  cg.bypass_l1 = true;
  const AccessPath l2 = gpu.compile_path({0, 0}, Space::kGlobal, cg);
  gpu.flush_caches();
  twin.flush_caches();
  gpu.run_warm_pass(l2, base, 32, bytes / 32);
  const std::uint64_t stepped = gpu.timed_loads_stepped();
  ElementCounts served;
  gpu.run_last_pass(l2, base, 32, bytes / 32, &served);
  EXPECT_EQ(gpu.timed_loads_stepped(), stepped) << "the pass is decided";
  EXPECT_EQ(served.at(Element::kL2), bytes / 32);
  EXPECT_EQ(next_latencies(gpu, base), next_latencies(twin, base));
}

// --- NoiseModel::mean_noise ------------------------------------------------

NoiseParams harsh_noise() {
  NoiseParams noise;
  noise.jitter_max = 6;
  noise.spike_probability = 0.01;
  noise.spike_min = 150;
  noise.spike_max = 600;
  return noise;
}

/// The exact mean and variance of one load's noise: jitter uniform on
/// {0..jitter_max}, plus with the spike probability a magnitude uniform on
/// {spike_min..spike_max}.
struct DrawMoments {
  double mean = 0.0;
  double variance = 0.0;
};

DrawMoments draw_moments(const NoiseParams& params) {
  const double p = params.spike_probability;
  const double jitters = params.jitter_max + 1.0;
  const double magnitudes = params.spike_max - params.spike_min + 1.0;
  // (value, probability) of every outcome.
  std::vector<std::pair<double, double>> outcomes;
  for (std::uint32_t j = 0; j <= params.jitter_max; ++j) {
    outcomes.emplace_back(j, (1.0 - p) / jitters);
    for (std::uint32_t m = params.spike_min; m <= params.spike_max; ++m) {
      outcomes.emplace_back(j + m, p / jitters / magnitudes);
    }
  }
  DrawMoments moments;
  for (const auto& [value, probability] : outcomes) {
    moments.mean += probability * value;
  }
  for (const auto& [value, probability] : outcomes) {
    const double d = value - moments.mean;
    moments.variance += probability * d * d;
  }
  return moments;
}

TEST(MeanNoise, IsTheMeanOfTheDraws) {
  // The charge for n loads is n times one load's exact mean noise, rounded
  // (within a cycle: the model spikes at the probability rounded to 2^-32).
  // And it is the mean of what the loads draw: a million sample_rounded(0)
  // calls sum to within six standard errors of it. The jitter-only model
  // checks the jitter's range, which the spikes' spread hides at the others.
  constexpr std::uint64_t kDraws = 1'000'000;
  const NoiseParams jitter_only{2, 0.0};
  for (const NoiseParams& params :
       {NoiseParams{}, harsh_noise(), jitter_only}) {
    const DrawMoments draw = draw_moments(params);
    const std::string where = "jitter " + std::to_string(params.jitter_max) +
                              ", spikes " +
                              std::to_string(params.spike_probability);
    NoiseModel model(params, Xoshiro256(42));
    for (const std::uint64_t n : {0ull, 1ull, 65ull, 224ull, 32768ull}) {
      EXPECT_NEAR(static_cast<double>(model.mean_noise(n)),
                  static_cast<double>(n) * draw.mean, 1.0)
          << where << ", n " << n;
    }
    std::uint64_t drawn = 0;
    for (std::uint64_t i = 0; i < kDraws; ++i) drawn += model.sample_rounded(0);
    const double loads = static_cast<double>(kDraws);
    EXPECT_NEAR(static_cast<double>(drawn),
                static_cast<double>(model.mean_noise(kDraws)),
                6.0 * std::sqrt(loads * draw.variance))
        << where;
  }
}

TEST(MeanNoise, SpikeProbabilityZeroAndOneAreExact) {
  for (const std::uint64_t n : {0ull, 1ull, 3ull, 32768ull}) {
    const NoiseModel calm({3, 0.0, 1000, 1000}, Xoshiro256(1));
    EXPECT_EQ(calm.mean_noise(n), (3 * n + 1) / 2) << n << ": half up";
    const NoiseModel spiky({3, 1.0, 1000, 2000}, Xoshiro256(1));
    EXPECT_EQ(spiky.mean_noise(n), (3 * n + 1) / 2 + 1500 * n) << n;
  }
}

}  // namespace
}  // namespace mt4g::sim
