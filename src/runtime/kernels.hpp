// Kernel-style launches over the simulated GPU.
//
// Each function here corresponds to one GPU kernel of the real tool:
// fine-grained p-chase (paper IV-A, Listings 1-2), the two-array p-chase
// that the Amount (IV-F), Physical Sharing (IV-G) and AMD sL1d CU-sharing
// (IV-H) benchmarks share (array B warmed from another core, logical space
// or CU), the scratchpad chase, and the stream kernel for bandwidth (IV-I).
// Setup, configuration and evaluation run on the host; only the loads
// execute "on the GPU" (the simulator).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/bandwidth.hpp"
#include "sim/gpu.hpp"

namespace mt4g::runtime {

/// Which pass engine executes p-chase loads.
///
/// kCompiled is the production engine: each chase compiles one AccessPath
/// per array, which that array's passes share, and runs them batched (zero
/// per-load allocation): warm-ups through Gpu::run_warm_pass, timed passes
/// through Gpu::run_last_pass. kReference keeps the per-load loops:
/// Gpu::warm_access, then Gpu::access_traced for each recorded load and the
/// single-load Gpu::run_pass it wraps for the rest; both
/// must produce bit-identical results for the same seed, which the
/// equivalence tests and bench/discovery_hotpath assert. Note the scope of
/// that gate: it verifies the batched execution (pass splitting, counter
/// accumulation, latency recording) against the one-load-at-a-time walk,
/// but both engines share the cache model and noise model underneath — a
/// bug in those shared layers would affect both sides identically and is
/// covered by the behavioural sim/cache/benchmark tests instead.
enum class PChaseEngine { kCompiled, kReference };

/// Engine used by the run_* kernels on this thread (default kCompiled).
PChaseEngine pchase_engine();
void set_pchase_engine(PChaseEngine engine);

/// RAII engine override for equivalence tests and benches. Thread-local, so
/// fleet workers on other threads are unaffected.
class ScopedPChaseEngine {
 public:
  explicit ScopedPChaseEngine(PChaseEngine engine)
      : previous_(pchase_engine()) {
    set_pchase_engine(engine);
  }
  ~ScopedPChaseEngine() { set_pchase_engine(previous_); }
  ScopedPChaseEngine(const ScopedPChaseEngine&) = delete;
  ScopedPChaseEngine& operator=(const ScopedPChaseEngine&) = delete;

 private:
  PChaseEngine previous_;
};

/// Configuration of one fine-grained p-chase execution.
struct PChaseConfig {
  sim::Space space = sim::Space::kGlobal;
  sim::AccessFlags flags{};
  std::uint64_t base = 0;          ///< array base address (from Gpu::alloc)
  std::uint64_t array_bytes = 0;   ///< array size; loads at base + i*stride
  std::uint32_t stride_bytes = 4;  ///< p-chase step
  /// Store only the first N timed latencies; 0 records (and reserves)
  /// nothing. chase_noise_seed folds it: two budgets put one chase on two
  /// noise streams.
  std::uint32_t record_count = 256;
  bool warmup = true;              ///< initial untimed pass over the array
  sim::Placement where{};          ///< SM/CU + core executing the chase
  /// Cap on the number of timed-pass loads; 0 = walk the whole array.
  /// Load i's latency depends only on the loads before it, so capping never
  /// changes the recorded prefix — it only stops the walk once nothing more
  /// is recorded. Benchmarks that consume recorded latencies alone (the size
  /// sweep, the line-size grid) cap at record_count and skip the long tail;
  /// consumers of the full-pass served_by classification (the bisection
  /// `fits` predicate, amount/sharing verdicts) must leave this at 0.
  std::uint64_t max_timed_steps = 0;
  /// Independent-measurement index: bumping it moves the chase onto a fresh
  /// noise stream without changing what it measures. The sweep engine uses
  /// it to genuinely re-measure spike-flagged points (a re-run of the
  /// identical config would reproduce the identical stream).
  std::uint32_t resample = 0;

  bool operator==(const PChaseConfig&) const = default;
};

/// Result of one p-chase execution.
struct PChaseResult {
  /// First record_count per-load latencies of the timed pass, in cycles.
  std::vector<std::uint32_t> latencies;
  /// How many loads the timed pass executed in total.
  std::uint64_t timed_loads = 0;
  /// Which level served each timed load (whole pass, not just recorded).
  /// This is the simulator's noise-free ground truth; the auto-evaluation
  /// uses it only for the exact bisection refinements, never for the K-S.
  /// A fixed-size per-element array: the timed pass bumps one slot per load,
  /// so this must not be a node-based map.
  sim::ElementCounts served_by;
  /// Simulated GPU cycles the real tool's kernel would spend: its whole
  /// warm-up plus its whole timed pass. The timed pass's recorded loads
  /// count their noisy latencies; its other executed loads count their base
  /// latencies plus their mean noise (NoiseModel::mean_noise). A pass
  /// capped by max_timed_steps adds its unexecuted tail at the executed
  /// loads' mean latency, in both engines. A batch result (see
  /// run_chase_batch) carries exactly what a cold run of its spec would,
  /// however the host produced it.
  std::uint64_t total_cycles = 0;
  /// Warm-up portion of total_cycles. Warm-up is noise-free, so this is a
  /// pure function of the chase config and the replica's prior cache state.
  std::uint64_t warm_cycles = 0;
};

/// One p-chase: optional warm-up pass, then a timed pass over the array.
/// Every p-chase kernel below ends with its timed pass, and the timed pass
/// ends by flushing the Gpu's caches (Gpu::run_last_pass on the compiled
/// engine; the per-load loop, then Gpu::flush_caches, on the reference
/// engine): a chase leaves its Gpu flushed, as the next kernel on real
/// hardware finds nothing of it in the caches it measures.
PChaseResult run_pchase(sim::Gpu& gpu, const PChaseConfig& config);

/// Two-array p-chase (paper IV-F Fig. 3, IV-G, IV-H): warms array A as
/// @p config_a says, then array B as @p config_b says, then re-runs array A
/// timed as @p config_a says. B differs from A in where or how it is read:
/// another core of the SM (Amount: B lands in core B's segment, if the SM
/// has more than one), another logical space on the same core (Physical
/// Sharing), or another CU (AMD sL1d sharing). A still hits iff B's warm-up
/// went to another physical cache. Both warm-ups run whatever the configs'
/// `warmup` flags say.
PChaseResult run_two_array_pchase(sim::Gpu& gpu, const PChaseConfig& config_a,
                                  const PChaseConfig& config_b);

/// Scratchpad (Shared Memory / LDS) latency kernel: @p count loads, with the
/// same record semantics as the p-chase timed pass — only the first
/// @p record_count latencies are stored (and only that much is reserved).
PChaseResult run_scratchpad_chase(sim::Gpu& gpu, std::uint32_t count,
                                  std::uint32_t record_count = 256);

/// Stream bandwidth kernel (paper IV-I): returns achieved bytes/second.
double run_stream(sim::Gpu& gpu, const sim::StreamConfig& config);

}  // namespace mt4g::runtime
