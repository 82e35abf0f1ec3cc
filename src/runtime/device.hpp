// HIP-like host runtime over the simulated GPU.
//
// Real MT4G consumes hipDeviceProp_t (mirroring cudaDeviceProp), the HSA
// runtime (AMD cache sizes) and KFD driver files (AMD cache line sizes).
// This header reproduces those three interfaces over sim::Gpu, preserving
// which attributes come "from an API" versus which must be benchmarked
// (paper Table I). The collectors consume only this layer, never sim::GpuSpec
// directly — that separation is what makes the benchmark results a genuine
// re-discovery rather than a spec read-back.
//
// The layer only queries a device; it configures none of it. The L2 fetch
// granularity newer NVIDIA chips let cudaDeviceSetLimit change (paper
// Sec. IV-D) is fixed when the Gpu is built: a device configured otherwise
// is a spec with that L2 sector_bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/gpu.hpp"

namespace mt4g::runtime {

/// Subset of hipDeviceProp_t / cudaDeviceProp that MT4G reads (paper III-A/B).
struct DeviceProp {
  std::string name;
  std::string vendor;              // "NVIDIA" / "AMD"
  std::string microarchitecture;
  std::string compute_capability;  // "9.0" / "gfx90a"
  double clock_mhz = 0;
  double memory_clock_mhz = 0;
  std::uint32_t memory_bus_bits = 0;
  std::uint64_t total_global_mem = 0;
  std::uint64_t shared_mem_per_block = 0;  // Shared Memory / LDS bytes
  std::uint64_t l2_cache_size = 0;  // API view: total on NVIDIA, per-XCD on AMD
  std::uint32_t warp_size = 0;
  std::uint32_t multi_processor_count = 0;
  std::uint32_t max_threads_per_block = 0;
  std::uint32_t max_threads_per_multiprocessor = 0;
  std::uint32_t max_blocks_per_multiprocessor = 0;
  std::uint32_t regs_per_block = 0;
  std::uint32_t regs_per_multiprocessor = 0;
  std::uint32_t xcd_count = 1;  // AMD accelerator complex dies
};

/// hipGetDeviceProperties equivalent.
DeviceProp get_device_prop(const sim::Gpu& gpu);

/// Cores per SM/CU come from a microarchitecture lookup table in the real
/// tool (paper III-B), not from the device props. Same here.
std::uint32_t cores_per_sm_lookup(const std::string& microarchitecture);

/// HSA runtime view (AMD only): cache sizes as the driver reports them.
struct HsaCacheInfo {
  std::uint64_t l2_size = 0;        // per-XCD instance size
  std::uint64_t l3_size = 0;        // 0 when absent
  std::uint32_t l2_instances = 0;   // XCD count
  std::uint32_t l3_instances = 0;
};
std::optional<HsaCacheInfo> hsa_cache_info(const sim::Gpu& gpu);

/// KFD driver view (AMD only): cache line sizes.
struct KfdCacheInfo {
  std::uint32_t l2_line = 0;
  std::uint32_t l3_line = 0;  // 0 when absent
};
std::optional<KfdCacheInfo> kfd_cache_info(const sim::Gpu& gpu);

/// Logical-to-physical CU id mapping (AMD only, paper III-B last bullet).
std::vector<std::uint32_t> logical_to_physical_cu(const sim::Gpu& gpu);

/// nvml-style MIG query (NVIDIA only): currently active MIG profile.
std::optional<sim::MigProfile> current_mig_profile(const sim::Gpu& gpu);

}  // namespace mt4g::runtime
