// The unified, vendor-agnostic topology report (paper Sec. III).
//
// Every attribute carries its provenance (API vs. microbenchmark vs.
// unavailable, mirroring the legend of Table I) and a confidence value — the
// significance the K-S test reached, or the alignment quality for segment
// counts. The report is the tool's public data model: the JSON/CSV/markdown
// emitters, the use-case integrations (perf model, sys-sage, GPUscout) and
// the validation benches all consume this struct.
#pragma once

#include <cstdint>
#include <optional>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hpp"
#include "stats/descriptive.hpp"

namespace mt4g::core {

/// How an attribute value was obtained (legend of paper Table I).
enum class Provenance {
  kBenchmark,      ///< "!"        — reverse-engineered via microbenchmarks
  kApi,            ///< "!(API)"   — retrieved from a vendor interface
  kUnavailable,    ///< "#"        — the tool could not determine it
  kNotApplicable,  ///< "n/a"      — meaningless for this element
};

std::string provenance_symbol(Provenance provenance);

/// One reported attribute with provenance and confidence.
struct Attribute {
  Provenance provenance = Provenance::kNotApplicable;
  double value = 0.0;       ///< bytes, cycles, or bytes/second
  double confidence = 1.0;  ///< 0..1; K-S significance-derived where measured
  std::string note;         ///< qualifier such as ">64KiB"

  bool available() const {
    return provenance == Provenance::kBenchmark ||
           provenance == Provenance::kApi;
  }

  static Attribute benchmarked(double v, double conf = 1.0) {
    return Attribute{Provenance::kBenchmark, v, conf, {}};
  }
  static Attribute from_api(double v) {
    return Attribute{Provenance::kApi, v, 1.0, {}};
  }
  static Attribute unavailable(std::string why = {}) {
    return Attribute{Provenance::kUnavailable, 0.0, 0.0, std::move(why)};
  }
  static Attribute not_applicable() { return Attribute{}; }
};

/// Report row for one memory element (one line of paper Table I / III).
struct MemoryElementReport {
  sim::Element element = sim::Element::kL1;
  Attribute size;
  Attribute load_latency;
  Attribute read_bandwidth;
  Attribute write_bandwidth;
  Attribute cache_line;
  Attribute fetch_granularity;
  Attribute amount;
  bool amount_per_gpu = false;  ///< scope of `amount`: per GPU vs per SM/CU
  /// NVIDIA: logical spaces backed by the same physical cache ("RO,TX,L1");
  /// AMD sL1d: "CU id" (details in TopologyReport::cu_sharing). Empty = n/a.
  std::string shared_with;
  /// Full latency distribution statistics (paper IV-C: p50, p95, stddev...).
  stats::Summary latency_stats;
};

/// Paper Sec. III-A.
struct GeneralInfo {
  std::string gpu_name;  ///< registry key
  std::string vendor;
  std::string model;
  std::string microarchitecture;
  std::string compute_capability;
  double clock_mhz = 0;
  double memory_clock_mhz = 0;
  std::uint32_t memory_bus_bits = 0;
};

/// Paper Sec. III-B.
struct ComputeInfo {
  std::uint32_t num_sms = 0;
  std::uint32_t cores_per_sm = 0;
  std::uint32_t num_cores_total = 0;
  std::uint32_t warp_size = 0;
  std::uint32_t warps_per_sm = 0;
  std::uint32_t max_threads_per_block = 0;
  std::uint32_t max_threads_per_sm = 0;
  std::uint32_t max_blocks_per_sm = 0;
  std::uint32_t regs_per_block = 0;
  std::uint32_t regs_per_sm = 0;
  /// AMD only: logical index -> physical CU id.
  std::vector<std::uint32_t> cu_physical_ids;
};

/// AMD sL1d CU-sharing result (paper IV-H).
struct CuSharingInfo {
  bool available = false;
  std::string unavailable_reason;
  /// physical CU id -> physical ids sharing the same sL1d (incl. itself).
  std::map<std::uint32_t, std::vector<std::uint32_t>> peers;
};

/// Reduction-value series of one size benchmark (the data behind Fig. 2).
struct SizeSeries {
  sim::Element element = sim::Element::kL1;
  std::vector<std::uint64_t> array_sizes;
  std::vector<double> reduced_values;
  std::uint64_t change_point_bytes = 0;  ///< 0 when none found
};

/// Per-datatype compute throughput (paper Sec. VII extension): achieved
/// FLOPS/IOPS of the FMA-stream kernel at its best launch configuration.
struct ComputeThroughputReport {
  std::string dtype;             ///< "FP64", "FP32", ..., "TensorFP16"
  double achieved_ops_per_s = 0;
  std::uint32_t blocks = 0;      ///< launch configuration of the maximum
  std::uint32_t threads_per_block = 0;
};

/// Simulated cycles of one discovery stage (one entry per executed stage of
/// the pipeline graph, in stage-declaration order).
struct StageCycleReport {
  std::string stage;  ///< stage name, e.g. "L1.size"
  std::uint64_t cycles = 0;
  /// Host wall-clock time the stage took on its worker. Always measured
  /// (two clock reads per stage), but emitted into the report JSON only
  /// when WallMetricsReport::enabled — wall time differs run to run, so it
  /// must stay out of the byte-identity contract by default. The divergence
  /// between a stage's cycle share and its wall share is what
  /// bench/discovery_hotpath surfaces: it flags stages that are
  /// host-overhead-bound rather than simulation-bound.
  double wall_seconds = 0.0;
  /// Host wall time of this stage spent resetting chase replicas (cache
  /// flush + noise reseed), a subset of wall_seconds. Same always-measured,
  /// wall-gated-emission contract as wall_seconds. A flush clears only the
  /// sets of the line range allocated since the last one, so this stays
  /// small even on stages that flush many-MB caches thousands of times.
  double reset_seconds = 0.0;
};

/// One host metric aggregated over a discovery (src/obs/ registry delta).
struct WallMetricSample {
  std::string name;  ///< e.g. "memo.hits", "replica.fork_ns"
  std::string kind;  ///< "counter" | "gauge" | "histogram"
  double value = 0.0;
  std::uint64_t count = 0;  ///< histogram observations (0 otherwise)
};

/// Host wall-clock observability of one discovery. Opt-in: populated (and
/// serialised as meta.wall) only when the obs metrics registry was enabled
/// for the run, so default reports stay byte-identical across runs and
/// thread counts.
struct WallMetricsReport {
  bool enabled = false;
  double wall_seconds = 0.0;  ///< host wall time of core::discover()
  std::vector<WallMetricSample> samples;
};

/// The complete MT4G report for one GPU.
struct TopologyReport {
  GeneralInfo general;
  ComputeInfo compute;
  std::vector<MemoryElementReport> memory;
  CuSharingInfo cu_sharing;
  /// Filled when DiscoverOptions::measure_compute is set.
  std::vector<ComputeThroughputReport> compute_throughput;
  std::uint32_t benchmarks_executed = 0;
  /// Modelled GPU time of the discovery (paper Sec. V-A): total_cycles at
  /// the spec clock, kernel benchmarks at their simulated seconds.
  double simulated_seconds = 0.0;
  /// Outlier-triggered widening rounds of the size sweeps.
  std::uint32_t sweep_widenings = 0;
  /// Simulated cycles of every benchmark the real tool would run: each chase
  /// priced as a cold run of its whole warm walk and timed pass, memo hits
  /// as the re-runs they stand for (see runtime/batch.hpp).
  std::uint64_t total_cycles = 0;
  /// Chase-memo accounting across all stage pools: specs answered without
  /// simulating a load, and specs that actually ran.
  std::uint64_t chase_memo_hits = 0;
  std::uint64_t chase_memo_misses = 0;
  /// The only cycle attribution: per-stage cycles in stage-declaration
  /// order, summing to total_cycles, and the longest dependency path of
  /// stage cycles through the stage graph.
  std::vector<StageCycleReport> stage_cycles;
  std::uint64_t critical_path_cycles = 0;
  /// Host wall-clock metrics of this discovery (opt-in, see the struct).
  WallMetricsReport wall;
  std::vector<SizeSeries> series;  ///< populated when graphs are requested

  const MemoryElementReport* find(sim::Element element) const;
  MemoryElementReport* find(sim::Element element);
};

}  // namespace mt4g::core
