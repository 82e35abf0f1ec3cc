#include "core/benchmarks/sharing.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/units.hpp"
#include "runtime/batch.hpp"

namespace mt4g::core {

bool SharingBenchResult::shared(sim::Element a, sim::Element b) const {
  for (const auto& [x, y, is_shared] : pairs) {
    if ((x == a && y == b) || (x == b && y == a)) return is_shared;
  }
  return false;
}

std::vector<sim::Element> SharingBenchResult::group_of(
    sim::Element element) const {
  std::vector<sim::Element> group;
  for (const auto& [x, y, is_shared] : pairs) {
    if (!is_shared) continue;
    if (x == element) group.push_back(y);
    if (y == element) group.push_back(x);
  }
  return group;
}

SharingBenchResult run_sharing_benchmark(sim::Gpu& gpu,
                                         const SharingBenchOptions& options) {
  SharingBenchResult out;
  const sim::Vendor vendor = gpu.spec().vendor;

  auto array_bytes_for = [](const SharingBenchOptions::Entry& entry) {
    std::uint64_t bytes = entry.cache_bytes - entry.cache_bytes / 8;
    if (entry.space_limit != 0) bytes = std::min(bytes, entry.space_limit);
    return round_down(std::max<std::uint64_t>(bytes, entry.stride),
                      entry.stride);
  };

  // The pair chases are independent (each runs on a reset replica), so they
  // execute as one batch. The eviction verdict reads the full-pass served_by
  // classification and the cycles alone, so no timed-pass cap, and the
  // chases record no latency.
  struct Pair {
    sim::Element element_a;
    sim::Element element_b;
    sim::Element tracked;
  };
  std::vector<Pair> pairs;
  std::vector<runtime::ChaseSpec> specs;
  for (std::size_t i = 0; i < options.entries.size(); ++i) {
    for (std::size_t j = i + 1; j < options.entries.size(); ++j) {
      // Track through the smaller cache: the larger one's warm-up can always
      // evict it, while the reverse may not reach far enough.
      const auto& tracked = options.entries[i].cache_bytes <=
                                    options.entries[j].cache_bytes
                                ? options.entries[i]
                                : options.entries[j];
      const auto& other = &tracked == &options.entries[i]
                              ? options.entries[j]
                              : options.entries[i];

      runtime::PChaseConfig config_a;
      const Target target_a = target_for(vendor, tracked.element);
      config_a.space = target_a.space;
      config_a.flags = target_a.flags;
      config_a.array_bytes = array_bytes_for(tracked);
      config_a.stride_bytes = tracked.stride;
      config_a.record_count = 0;

      runtime::PChaseConfig config_b;
      const Target target_b = target_for(vendor, other.element);
      config_b.space = target_b.space;
      config_b.flags = target_b.flags;
      config_b.array_bytes = array_bytes_for(other);
      config_b.stride_bytes = other.stride;
      config_b.record_count = 0;

      config_a.base = gpu.alloc(config_a.array_bytes, 256);
      config_b.base = gpu.alloc(config_b.array_bytes, 256);
      pairs.push_back({options.entries[i].element, options.entries[j].element,
                       tracked.element});
      specs.push_back(runtime::ChaseSpec::sharing(config_a, config_b));
    }
  }
  const auto results =
      runtime::run_chase_batch(gpu, specs, options.chase_pool);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    out.cycles += results[k].total_cycles;
    const bool evicted = hit_fraction(results[k], pairs[k].tracked) < 0.5;
    out.pairs.emplace_back(pairs[k].element_a, pairs[k].element_b, evicted);
  }
  return out;
}

CuSharingBenchResult run_cu_sharing_benchmark(
    sim::Gpu& gpu, const CuSharingBenchOptions& options) {
  if (options.sl1d_bytes == 0) {
    throw std::invalid_argument("cu sharing benchmark: missing sL1d size");
  }
  CuSharingBenchResult out;
  const sim::GpuSpec& spec = gpu.spec();
  const std::uint64_t array_bytes = round_down(
      options.sl1d_bytes - options.sl1d_bytes / 8, options.stride);

  const Target target = target_for(sim::Vendor::kAmd, sim::Element::kSL1D);
  for (std::uint32_t cu_a = 0; cu_a < spec.num_sms; ++cu_a) {
    const std::uint32_t phys_a = spec.physical_cu(cu_a);
    out.peers[phys_a].push_back(phys_a);
  }
  // All CU pairs are independent dual-CU chases: one batch. Both arrays are
  // allocated once and reused by every pair — batched chases run on reset
  // replicas, so sharing the bases cannot couple them (and per-pair
  // allocations would make addresses depend on the pair order). The verdict
  // reads served_by and the cycles alone, so the chases record no latency.
  runtime::PChaseConfig config;
  config.space = target.space;
  config.flags = target.flags;
  config.array_bytes = array_bytes;
  config.stride_bytes = options.stride;
  config.record_count = 0;
  config.base = gpu.alloc(array_bytes, 256);
  const std::uint64_t base_b = gpu.alloc(array_bytes, 256);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> cu_pairs;
  std::vector<runtime::ChaseSpec> specs;
  for (std::uint32_t cu_a = 0; cu_a < spec.num_sms; ++cu_a) {
    for (std::uint32_t cu_b = cu_a + 1; cu_b < spec.num_sms; ++cu_b) {
      config.where = sim::Placement{cu_a, 0};
      cu_pairs.emplace_back(cu_a, cu_b);
      specs.push_back(runtime::ChaseSpec::dual_cu(config, cu_b, base_b));
    }
  }
  const auto results =
      runtime::run_chase_batch(gpu, specs, options.chase_pool);
  for (std::size_t k = 0; k < cu_pairs.size(); ++k) {
    out.cycles += results[k].total_cycles;
    if (hit_fraction(results[k], sim::Element::kSL1D) < 0.5) {
      const std::uint32_t phys_a = spec.physical_cu(cu_pairs[k].first);
      const std::uint32_t phys_b = spec.physical_cu(cu_pairs[k].second);
      out.peers[phys_a].push_back(phys_b);
      out.peers[phys_b].push_back(phys_a);
    }
  }
  for (auto& [cu, peers] : out.peers) std::sort(peers.begin(), peers.end());
  return out;
}

}  // namespace mt4g::core
