#include "runtime/device.hpp"
#include "runtime/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/units.hpp"
#include "sim/registry.hpp"

namespace mt4g::runtime {
namespace {

using sim::Element;
using sim::Space;

TEST(Device, NvidiaPropsMirrorSpec) {
  sim::Gpu gpu(sim::registry_get("H100-80"), 1);
  const DeviceProp p = get_device_prop(gpu);
  EXPECT_EQ(p.vendor, "NVIDIA");
  EXPECT_EQ(p.multi_processor_count, 132u);
  EXPECT_EQ(p.warp_size, 32u);
  EXPECT_EQ(p.total_global_mem, 80 * GiB);
  EXPECT_EQ(p.shared_mem_per_block, 228 * KiB);
  // NVIDIA API reports the aggregate L2 (both partitions).
  EXPECT_EQ(p.l2_cache_size, 50 * MiB);
  EXPECT_EQ(p.compute_capability, "9.0");
}

TEST(Device, AmdPropsReportPerXcdL2) {
  sim::Gpu gpu(sim::registry_get("MI300X"), 1);
  const DeviceProp p = get_device_prop(gpu);
  EXPECT_EQ(p.vendor, "AMD");
  EXPECT_EQ(p.l2_cache_size, 4 * MiB);  // per-XCD instance
  EXPECT_EQ(p.xcd_count, 8u);
  EXPECT_EQ(p.warp_size, 64u);
}

TEST(Device, CoresPerSmLookupTable) {
  EXPECT_EQ(cores_per_sm_lookup("Hopper"), 128u);
  EXPECT_EQ(cores_per_sm_lookup("Volta"), 64u);
  EXPECT_EQ(cores_per_sm_lookup("Pascal"), 128u);
  EXPECT_EQ(cores_per_sm_lookup("CDNA2"), 64u);
}

TEST(Device, HsaAndKfdOnlyOnAmd) {
  sim::Gpu nv(sim::registry_get("H100-80"), 1);
  sim::Gpu amd(sim::registry_get("MI210"), 1);
  EXPECT_FALSE(hsa_cache_info(nv).has_value());
  EXPECT_FALSE(kfd_cache_info(nv).has_value());
  const auto hsa = hsa_cache_info(amd);
  ASSERT_TRUE(hsa.has_value());
  EXPECT_EQ(hsa->l2_size, 8 * MiB);
  EXPECT_EQ(hsa->l2_instances, 1u);
  const auto kfd = kfd_cache_info(amd);
  ASSERT_TRUE(kfd.has_value());
  EXPECT_EQ(kfd->l2_line, 128u);
}

TEST(Device, CuMappingOnlyOnAmd) {
  sim::Gpu nv(sim::registry_get("V100"), 1);
  sim::Gpu amd(sim::registry_get("MI210"), 1);
  EXPECT_TRUE(logical_to_physical_cu(nv).empty());
  const auto mapping = logical_to_physical_cu(amd);
  ASSERT_EQ(mapping.size(), 104u);
  EXPECT_EQ(mapping[0], 0u);
  EXPECT_EQ(mapping[5], 6u);  // physical id 5 is fused off
}

TEST(Kernels, PchaseWarmArrayAllHits) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 1);
  PChaseConfig config;
  config.base = gpu.alloc(2 * KiB);
  config.array_bytes = 2 * KiB;  // fits the 4 KiB L1
  config.stride_bytes = 32;
  const auto result = run_pchase(gpu, config);
  EXPECT_EQ(result.timed_loads, 64u);
  EXPECT_EQ(result.served_by.at(Element::kL1), 64u);
  EXPECT_EQ(result.latencies.size(), 64u);
}

TEST(Kernels, PchaseOversizedArrayMisses) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 1);
  PChaseConfig config;
  config.base = gpu.alloc(16 * KiB);
  config.array_bytes = 16 * KiB;  // 4x the L1
  config.stride_bytes = 32;
  const auto result = run_pchase(gpu, config);
  EXPECT_EQ(result.served_by.count(Element::kL1), 0u);
  EXPECT_GT(result.served_by.at(Element::kL2), 0u);
}

TEST(Kernels, PchaseRecordCountCapsStoredLatencies) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 1);
  PChaseConfig config;
  config.base = gpu.alloc(2 * KiB);
  config.array_bytes = 2 * KiB;
  config.stride_bytes = 32;
  config.record_count = 10;
  const auto result = run_pchase(gpu, config);
  EXPECT_EQ(result.latencies.size(), 10u);
  EXPECT_EQ(result.timed_loads, 64u);  // but the full pass still ran
}

TEST(Kernels, PchaseValidation) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 1);
  PChaseConfig config;
  config.array_bytes = 16;
  config.stride_bytes = 0;
  EXPECT_THROW(run_pchase(gpu, config), std::invalid_argument);
  config.stride_bytes = 64;
  config.array_bytes = 32;
  EXPECT_THROW(run_pchase(gpu, config), std::invalid_argument);
}

/// Array B of a two-array chase: @p config's chase at @p base, placed at
/// @p where.
PChaseConfig second_array(PChaseConfig config, std::uint64_t base,
                          sim::Placement where) {
  config.base = base;
  config.where = where;
  return config;
}

TEST(Kernels, AmountKernelSameSegmentEvicts) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 1);
  PChaseConfig config;
  config.array_bytes = 3584;  // 7/8 of the 4 KiB L1 segment
  config.stride_bytes = 32;
  config.base = gpu.alloc(config.array_bytes);
  const auto base_b = gpu.alloc(config.array_bytes);
  // Core 1 shares core 0's segment: the timed pass must thrash.
  const auto result = run_two_array_pchase(
      gpu, config, second_array(config, base_b, {0, 1}));
  EXPECT_EQ(result.served_by.count(Element::kL1), 0u);
}

TEST(Kernels, AmountKernelOtherSegmentKeepsHits) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 1);
  PChaseConfig config;
  config.array_bytes = 3584;
  config.stride_bytes = 32;
  config.base = gpu.alloc(config.array_bytes);
  const auto base_b = gpu.alloc(config.array_bytes);
  // Core 8 sits in the second L1 segment: core 0's array survives.
  const auto result = run_two_array_pchase(
      gpu, config, second_array(config, base_b, {0, 8}));
  EXPECT_EQ(result.served_by.at(Element::kL1), result.timed_loads);
}

TEST(Kernels, ScratchpadChase) {
  sim::Gpu gpu(sim::registry_get("TestGPU-AMD"), 1);
  const auto result = run_scratchpad_chase(gpu, 128);
  EXPECT_EQ(result.latencies.size(), 128u);
  EXPECT_EQ(result.served_by.at(Element::kLds), 128u);
}

TEST(Kernels, DualCuKernelDetectsSharedSl1d) {
  sim::Gpu gpu(sim::registry_get("TestGPU-AMD"), 1);
  PChaseConfig config;
  config.space = Space::kScalar;
  config.array_bytes = 896;  // 7/8 of the 1 KiB sL1d
  config.stride_bytes = 64;
  config.base = gpu.alloc(config.array_bytes);
  const auto base_b = gpu.alloc(config.array_bytes);
  // Logical CUs 0 and 1 share one sL1d: eviction.
  const auto shared = run_two_array_pchase(
      gpu, config, second_array(config, base_b, {1, 0}));
  EXPECT_EQ(shared.served_by.count(Element::kSL1D), 0u);
  // Logical CU 2 (physical 2, exclusive): no interference.
  gpu.flush_caches();
  config.base = gpu.alloc(config.array_bytes);
  const auto isolated = run_two_array_pchase(
      gpu, config,
      second_array(config, gpu.alloc(config.array_bytes), {2, 0}));
  EXPECT_EQ(isolated.served_by.at(Element::kSL1D), isolated.timed_loads);
}

TEST(Kernels, RecordingChangesNothingElse) {
  // A plain chase that overflows the L1, a sharing chase whose two spaces
  // share one physical cache, and dual-CU chases on CUs that share an sL1d
  // (the timed pass steps) and on CUs that do not (the first level holds
  // the walk): recording 256 latencies or none, on Gpus reseeded alike and
  // on either engine, the served counts and timed loads agree, and a budget
  // of 0 records and reserves nothing. The cycles agree on noiseless Gpus:
  // under noise, a recorded load counts its own draw and an unrecorded one
  // its mean noise (NoiseModel::mean_noise).
  struct Chase {
    const char* model;
    Space space_b;
    std::uint64_t array_bytes;
    std::uint32_t stride;
    sim::Placement where_b;
    bool two_arrays;
    Element first_level;
    bool evicted;
  };
  const Chase chases[] = {
      {"TestGPU-NV", Space::kGlobal, 16 * KiB, 32, {0, 0}, false,
       Element::kL1, true},
      {"TestGPU-NV", Space::kTexture, 3584, 16, {0, 0}, true, Element::kL1,
       true},
      {"TestGPU-AMD", Space::kScalar, 896, 4, {1, 0}, true, Element::kSL1D,
       true},
      {"TestGPU-AMD", Space::kScalar, 896, 4, {2, 0}, true, Element::kSL1D,
       false},
  };
  for (const PChaseEngine engine :
       {PChaseEngine::kCompiled, PChaseEngine::kReference}) {
    const ScopedPChaseEngine scope(engine);
    for (const Chase& chase : chases) {
      const auto run = [&](std::uint32_t record_count,
                           const sim::NoiseParams& noise) {
        sim::Gpu gpu(sim::registry_get(chase.model), 1, std::nullopt, noise);
        PChaseConfig config;
        config.space = chase.space_b == Space::kScalar ? Space::kScalar
                                                       : Space::kGlobal;
        config.array_bytes = chase.array_bytes;
        config.stride_bytes = chase.stride;
        config.record_count = record_count;
        config.base = gpu.alloc(config.array_bytes);
        PChaseConfig config_b =
            second_array(config, gpu.alloc(config.array_bytes), chase.where_b);
        config_b.space = chase.space_b;
        gpu.reseed_noise(7);
        return chase.two_arrays ? run_two_array_pchase(gpu, config, config_b)
                                : run_pchase(gpu, config);
      };
      const PChaseResult none = run(0, {});
      const PChaseResult some = run(256, {});
      const sim::NoiseParams noiseless{0, 0.0};
      const std::string where =
          std::string(chase.model) + ", space " +
          std::to_string(static_cast<int>(chase.space_b)) + ", CU " +
          std::to_string(chase.where_b.sm) + ", engine " +
          std::to_string(static_cast<int>(engine));
      EXPECT_EQ(run(0, noiseless).total_cycles,
                run(256, noiseless).total_cycles)
          << where;
      EXPECT_TRUE(none.served_by == some.served_by) << where;
      EXPECT_EQ(none.timed_loads, some.timed_loads) << where;
      EXPECT_EQ(some.served_by.at(chase.first_level) < some.timed_loads,
                chase.evicted)
          << where;
      EXPECT_TRUE(none.latencies.empty()) << where;
      EXPECT_EQ(none.latencies.capacity(), 0u) << where;
      EXPECT_EQ(some.latencies.size(),
                std::min<std::uint64_t>(some.timed_loads, 256))
          << where;
    }
  }
}

}  // namespace
}  // namespace mt4g::runtime
