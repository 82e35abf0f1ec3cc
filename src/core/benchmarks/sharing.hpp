// Physical-sharing benchmarks (paper Sec. IV-G for NVIDIA logical spaces,
// Sec. IV-H for AMD sL1d CU groups).
//
// NVIDIA: logical memory spaces (global, texture, read-only, constant) may be
// backed by one physical cache or by separate ones. For each element pair we
// warm array A through space A, warm array B through space B, and re-run A
// timed: misses mean B's warm-up evicted A — same physical cache. The pair is
// ordered so the *smaller* cache is the tracked one (a 2 KiB constant array
// cannot evict a 238 KiB L1, but the converse works).
//
// AMD: the sL1d is shared between groups of 2-3 CUs, with fused-off
// neighbours leaving some CUs exclusive access. Two blocks pinned to two CUs
// run the same warm/warm/timed protocol over scalar arrays; MT4G makes no
// layout assumption and tests all CU pairs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/target.hpp"
#include "sim/gpu.hpp"

namespace mt4g::runtime {
struct ReplicaPool;
}

namespace mt4g::core {

/// NVIDIA pairwise sharing result.
struct SharingBenchResult {
  /// Per tested pair: (element X, element Y) -> physically shared?
  std::vector<std::tuple<sim::Element, sim::Element, bool>> pairs;
  std::uint64_t cycles = 0;

  /// True when the pair (in either order) was measured as shared.
  bool shared(sim::Element a, sim::Element b) const;
  /// Elements of @p universe sharing a physical cache with @p element.
  std::vector<sim::Element> group_of(sim::Element element) const;
};

struct SharingBenchOptions {
  /// Elements to test pairwise; each with its size and fetch granularity
  /// (from the earlier benchmarks).
  struct Entry {
    sim::Element element;
    std::uint64_t cache_bytes;
    std::uint32_t stride;
    /// Hard cap on array bytes in this element's space (64 KiB for constant).
    std::uint64_t space_limit = 0;  ///< 0 = unlimited
  };
  std::vector<Entry> entries;
  /// Pool the pair chases run on (see SizeBenchOptions::chase_pool).
  runtime::ReplicaPool* chase_pool = nullptr;
};

SharingBenchResult run_sharing_benchmark(sim::Gpu& gpu,
                                         const SharingBenchOptions& options);

/// AMD sL1d CU-id sharing (paper IV-H).
struct CuSharingBenchOptions {
  std::uint64_t sl1d_bytes = 0;
  std::uint32_t stride = 64;
  /// Pool the CU-pair chases run on, as above.
  runtime::ReplicaPool* chase_pool = nullptr;
};

struct CuSharingBenchResult {
  /// physical CU id -> physical CU ids sharing its sL1d (incl. itself).
  std::map<std::uint32_t, std::vector<std::uint32_t>> peers;
  std::uint64_t cycles = 0;
};

CuSharingBenchResult run_cu_sharing_benchmark(
    sim::Gpu& gpu, const CuSharingBenchOptions& options);

}  // namespace mt4g::core
