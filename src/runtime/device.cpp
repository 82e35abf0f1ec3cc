#include "runtime/device.hpp"

namespace mt4g::runtime {

DeviceProp get_device_prop(const sim::Gpu& gpu) {
  const sim::GpuSpec& spec = gpu.spec();
  DeviceProp p;
  p.name = spec.model;
  p.vendor = sim::vendor_name(spec.vendor);
  p.microarchitecture = spec.microarchitecture;
  p.compute_capability = spec.compute_capability;
  p.clock_mhz = spec.clock_mhz;
  p.memory_clock_mhz = spec.memory_clock_mhz;
  p.memory_bus_bits = spec.memory_bus_bits;
  if (spec.has(sim::Element::kDeviceMem)) {
    p.total_global_mem = spec.at(sim::Element::kDeviceMem).size_bytes;
  }
  if (gpu.mig()) p.total_global_mem = gpu.mig()->mem_bytes;
  const sim::Element scratch = spec.vendor == sim::Vendor::kNvidia
                                   ? sim::Element::kSharedMem
                                   : sim::Element::kLds;
  if (spec.has(scratch)) {
    p.shared_mem_per_block = spec.at(scratch).size_bytes;
  }
  if (spec.has(sim::Element::kL2)) {
    const auto& l2 = spec.at(sim::Element::kL2);
    // NVIDIA's API reports the aggregate L2 capacity; AMD's reports the
    // per-XCD instance (paper Sec. IV-F1).
    p.l2_cache_size = spec.vendor == sim::Vendor::kNvidia
                          ? l2.size_bytes * l2.amount
                          : l2.size_bytes;
    if (gpu.mig()) p.l2_cache_size = gpu.mig()->l2_bytes;
  }
  p.warp_size = spec.warp_size;
  p.multi_processor_count = gpu.visible_sms();
  p.max_threads_per_block = spec.max_threads_per_block;
  p.max_threads_per_multiprocessor = spec.max_threads_per_sm;
  p.max_blocks_per_multiprocessor = spec.max_blocks_per_sm;
  p.regs_per_block = spec.regs_per_block;
  p.regs_per_multiprocessor = spec.regs_per_sm;
  p.xcd_count = spec.xcd_count;
  return p;
}

std::uint32_t cores_per_sm_lookup(const std::string& microarchitecture) {
  // Microarchitecture-specific internal lookup table (paper Sec. III-B).
  if (microarchitecture == "Pascal") return 128;
  if (microarchitecture == "Volta") return 64;
  if (microarchitecture == "Turing") return 64;
  if (microarchitecture == "Ampere") return 64;
  if (microarchitecture == "Hopper") return 128;
  if (microarchitecture == "CDNA" || microarchitecture == "CDNA2" ||
      microarchitecture == "CDNA3") {
    return 64;
  }
  if (microarchitecture == "TestArch") return 16;
  if (microarchitecture == "TestCDNA") return 16;
  return 64;
}

std::optional<HsaCacheInfo> hsa_cache_info(const sim::Gpu& gpu) {
  const sim::GpuSpec& spec = gpu.spec();
  if (spec.vendor != sim::Vendor::kAmd) return std::nullopt;
  HsaCacheInfo info;
  if (spec.has(sim::Element::kL2)) {
    info.l2_size = spec.at(sim::Element::kL2).size_bytes;
    info.l2_instances = spec.at(sim::Element::kL2).amount;
  }
  if (spec.has(sim::Element::kL3)) {
    info.l3_size = spec.at(sim::Element::kL3).size_bytes;
    info.l3_instances = spec.at(sim::Element::kL3).amount;
  }
  return info;
}

std::optional<KfdCacheInfo> kfd_cache_info(const sim::Gpu& gpu) {
  const sim::GpuSpec& spec = gpu.spec();
  if (spec.vendor != sim::Vendor::kAmd) return std::nullopt;
  KfdCacheInfo info;
  if (spec.has(sim::Element::kL2)) {
    info.l2_line = spec.at(sim::Element::kL2).line_bytes;
  }
  if (spec.has(sim::Element::kL3)) {
    info.l3_line = spec.at(sim::Element::kL3).line_bytes;
  }
  return info;
}

std::vector<std::uint32_t> logical_to_physical_cu(const sim::Gpu& gpu) {
  const sim::GpuSpec& spec = gpu.spec();
  std::vector<std::uint32_t> mapping;
  if (spec.vendor != sim::Vendor::kAmd) return mapping;
  mapping.reserve(spec.num_sms);
  for (std::uint32_t logical = 0; logical < spec.num_sms; ++logical) {
    mapping.push_back(spec.physical_cu(logical));
  }
  return mapping;
}

std::optional<sim::MigProfile> current_mig_profile(const sim::Gpu& gpu) {
  return gpu.mig();
}

}  // namespace mt4g::runtime
