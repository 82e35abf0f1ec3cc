// The chase-plan engine: batched execution of any p-chase shape.
//
// A ChaseSpec describes one measurement of any of the four chase shapes the
// tool uses — plain (size/line-size/latency style), amount (A/B/A on two
// cores), sharing (two logical spaces), dual-CU (AMD sL1d) — as pure data.
// run_chase_batch() runs a list of independent specs and returns one
// PChaseResult per spec, in spec order. Each chase executes on a Gpu replica
// (Gpu::fork) that is reset — caches flushed, noise stream re-seeded from
// (gpu seed, spec) via chase_noise_seed() — immediately before the chase, so
// a chase's result is a pure function of the owning Gpu's seed and its own
// spec. That makes the result vector byte-identical for every thread count,
// including the threads == 1 serial reference mode, which is what
// bench/discovery_hotpath and the sweep-engine tests assert.
//
// Purity also makes results cacheable: a ReplicaPool carries a memo keyed by
// the full spec, so a spec measured once is answered without simulating a
// load every time it recurs — across widenings of one sweep, across the
// coarse/refinement sweeps, and across benchmarks sharing the pool. Memo hits
// and intra-batch duplicates are resolved in spec order before any chase
// runs, so which index runs and which replays is a function of the batch
// contents alone, never of scheduling.
//
// The trade-off is explicit: batched chases do NOT share a noise stream with
// the owning Gpu (each is re-seeded from its spec), so routing a measurement
// through the batch changes its noise realisation relative to the
// serial-on-the-main-Gpu path. The benchmark layer accepts this — detection
// is robust by construction — in exchange for memoization and parallelism.
//
// Warm-up state, by contrast, IS shared — exactly. Warm-up passes consume no
// noise draws (see runtime/kernels.cpp), so the warm state a chase observes
// is a pure function of its warm walk, and a longer walk of the same WarmKey
// is an exact extension of a shorter one. The batch planner groups
// warm-compatible plain chases into chains sorted by walk length, executes
// each chain as chunked units that warm incrementally (snapshot/restore
// around each bounded timed pass), and keeps each chain's end-of-warm
// snapshot in the pool's warm ledger so a later batch resumes the walk
// instead of re-warming. All of that only saves host work.
//
// The cost rule: every result carries the cycles the real tool would spend
// on its spec — the whole warm walk from cold (a chunk member or a resumed
// walk adds the cold cost of the part it skipped, which is exact because
// warm-up is noise-free), the whole timed pass (see kernels.hpp), and for a
// memo hit or an in-batch duplicate the cycles of the run it replays. So
// every result equals an isolated cold run of its spec, in cycles as in
// measurements, for every thread count, chunking, engine, batch composition
// and history.
//
// That independence is what run-ahead rests on. run_chase_ahead() executes
// probes a serial search may need next — on participants that would idle
// otherwise — each as its own unit, resuming from the ledger as it stands,
// and leaves its result and its end-of-warm snapshot in the pool's run-ahead
// table. The commit rule: a later run_chase_batch() that misses the memo but
// finds the spec in that table takes the stored result instead of executing
// it, and memoizes and records it in the ledger exactly as if it had just
// run. Memo stats, the ledger and hence report bytes are those of the serial
// search; only wall time changes.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/executor.hpp"
#include "runtime/kernels.hpp"
#include "sim/gpu.hpp"

namespace mt4g::runtime {

/// A thread-safe free list of owner forks. Forking a Gpu costs a full cache
/// reconstruction (milliseconds on models with large caches), but replicas
/// are interchangeable: every chase resets its replica (flush + reseed)
/// before running, and a flushed cache is observationally identical to a
/// fresh one. The discovery stage runner shares one cache per graph run so
/// stage substrates and chase replicas are forked once and recycled, instead
/// of once per stage. Acquire/release order never influences results —
/// that is exactly the reset discipline's guarantee.
class ReplicaCache {
 public:
  /// Pops a cached replica or forks a new one from @p owner. Cached
  /// replicas from a different path epoch (cache rebuild) are discarded.
  sim::Gpu acquire(const sim::Gpu& owner);
  /// Returns a replica to the free list.
  void release(sim::Gpu&& replica);

 private:
  std::mutex mutex_;
  std::uint64_t epoch_ = 0;
  std::vector<sim::Gpu> free_;
};

/// The four chase shapes of the benchmark suite (paper IV-A/F/G/H).
enum class ChaseKind : std::uint8_t {
  kPlain,    ///< warm-up + timed pass over one array
  kAmount,   ///< core A warms, core B warms a second array, core A timed
  kSharing,  ///< warm space A, warm space B, timed on A
  kDualCu,   ///< CU A warms, CU B warms a second array, CU A timed
};

/// One chase of any shape, as pure data. Equality spans every
/// result-relevant field, which is what makes specs usable as memo keys.
struct ChaseSpec {
  ChaseKind kind = ChaseKind::kPlain;
  PChaseConfig config{};    ///< the timed chase (and its own warm-up)
  PChaseConfig config_b{};  ///< kSharing only: the second warm-up chase
  std::uint32_t partner = 0;  ///< kAmount: core B; kDualCu: CU B
  std::uint64_t base_b = 0;   ///< kAmount/kDualCu: second array base

  bool operator==(const ChaseSpec&) const = default;

  static ChaseSpec plain(const PChaseConfig& config) {
    return ChaseSpec{ChaseKind::kPlain, config, {}, 0, 0};
  }
  static ChaseSpec amount(const PChaseConfig& config, std::uint32_t core_b,
                          std::uint64_t base_b) {
    return ChaseSpec{ChaseKind::kAmount, config, {}, core_b, base_b};
  }
  static ChaseSpec sharing(const PChaseConfig& config_a,
                           const PChaseConfig& config_b) {
    return ChaseSpec{ChaseKind::kSharing, config_a, config_b, 0, 0};
  }
  static ChaseSpec dual_cu(const PChaseConfig& config, std::uint32_t cu_b,
                           std::uint64_t base_b) {
    return ChaseSpec{ChaseKind::kDualCu, config, {}, cu_b, base_b};
  }
};

/// Executes one spec on @p gpu as-is: no replica, no reset, no memo. The
/// batch runner calls this on a reset replica; tests can call it directly.
PChaseResult run_chase(sim::Gpu& gpu, const ChaseSpec& spec);

/// Memo accounting of a ReplicaPool: hits are answered without simulating a
/// single load (the returned result carries the cycles of the run it
/// replays).
struct ChaseMemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< specs that actually ran
};

/// Identity of one warm-up walk. Two plain chases with equal WarmKeys warm
/// the same address sequence through the same cache chain; because a longer
/// warm walk is an exact extension of a shorter one (the first `steps` loads
/// are identical) and warm-up consumes no noise draws, the warm state and
/// noise-free warm cycle total of any walk length can be derived
/// incrementally from a shorter one. Array size, record budget and the
/// timed-pass cap are deliberately absent: those are exactly the fields
/// chases may differ in while sharing a warm walk. Stride stays in the key —
/// a different stride is a different address sequence, and sharing across it
/// would change results.
struct WarmKey {
  sim::Space space = sim::Space::kGlobal;
  bool bypass_l1 = false;
  std::uint64_t base = 0;
  std::uint32_t stride_bytes = 0;
  std::uint32_t sm = 0;
  std::uint32_t core = 0;

  auto tie() const {
    return std::tie(space, bypass_l1, base, stride_bytes, sm, core);
  }
  bool operator==(const WarmKey& other) const { return tie() == other.tie(); }
  bool operator<(const WarmKey& other) const { return tie() < other.tie(); }
};

/// One resumable warm walk of a WarmKey: how many steps were walked, the
/// noise-free cycle total of walking them from cold, and the sparse cache
/// image at that point, so a later chunk can resume the walk instead of
/// re-warming from scratch and still carry the walk's cold cost.
struct WarmStateEntry {
  std::uint64_t steps = 0;
  std::uint64_t cum_warm_cycles = 0;
  sim::PathSnapshot state;
};

/// A probe run_chase_ahead() executed and nobody committed yet: its result,
/// as run_chase_batch() would return it, and the end of its warm walk as the
/// ledger will record it on commit (compiled engine, warm-shareable specs).
struct AheadResult {
  ChaseSpec spec;
  PChaseResult result;
  std::optional<WarmStateEntry> warm;
};

/// How run-ahead fared on one pool: every probe that ran is eventually
/// used (committed by run_chase_batch) or discarded.
struct ChaseAheadStats {
  std::uint64_t ran = 0;
  std::uint64_t used = 0;
  std::uint64_t discarded = 0;
};

/// Reusable replicas + chase-result memo for repeated batch calls against
/// the same owning Gpu. Both are rebuilt automatically when the owning Gpu
/// invalidated its compiled paths (cache rebuild via
/// set_l2_fetch_granularity) — the epoch tracks that, and memoized results
/// measured against the old cache geometry would be stale. A pool must not
/// be shared across different owning Gpus (Gpu::fork replicas of one owner,
/// which keep the owner's seed, count as the same owning Gpu).
struct ReplicaPool {
  std::uint64_t epoch = 0;
  /// One replica per executor slot, acquired (ReplicaCache or fork) when
  /// the slot runs its first unit: replicas exist only for slots that ran,
  /// never for participants a batch was allowed but did not get.
  std::vector<std::optional<sim::Gpu>> replicas;
  /// spec-seed hash -> (spec, result) entries; collisions resolved by the
  /// full spec comparison.
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<ChaseSpec, PChaseResult>>>
      memo;
  ChaseMemoStats memo_stats;
  /// Read-only parent memos, probed in order after this pool's own memo
  /// misses. The discovery stage graph points a stage's pool at the pools of
  /// its completed (transitive) dependency stages: those finished before
  /// this pool's stage started under every schedule, so which probes hit is
  /// a function of the graph alone — never of stage scheduling — and the
  /// upstream pools are immutable while this pool is live. Hits against an
  /// upstream memo are counted in this pool's memo_stats.
  std::vector<const ReplicaPool*> upstream;
  /// Optional shared fork cache: new replicas are acquired here instead of
  /// forked, and the stage runner returns them after the pool's stage
  /// completes. nullptr = fork directly (the pre-graph behaviour).
  ReplicaCache* replica_cache = nullptr;
  /// Executor of this pool's batches when ChaseBatchOptions::executor is
  /// unset; nullptr = exec::shared_executor(), resolved only by a batch that
  /// fans out. The stage runner sets it to DiscoverOptions::bench_executor,
  /// the executor its graph runs on, so idle stage workers can help.
  exec::Executor* executor = nullptr;
  /// Warm-state ledger, a pure execution cache: per warm key, the
  /// end-of-warm snapshot of each distinct chain-end walk length, sorted
  /// ascending by steps. A chunk resumes from the longest walk not beyond
  /// its first member. Read at batch-plan time, updated once per batch at
  /// the join, and cleared with the memo on an epoch change.
  std::map<WarmKey, std::vector<WarmStateEntry>> warm_ledger;
  /// Resident bytes of ledger snapshots; a snapshot that would exceed the
  /// budget is not kept.
  std::uint64_t warm_state_bytes = 0;
  std::uint64_t warm_state_budget = 256ULL << 20;
  /// Sub-sweep chunking: how many chases of one warm chain execute per
  /// parallel unit. Each chunk re-warms independently from the best ledger
  /// snapshot and fans out through the batch executor, which is what lets a
  /// single size sweep parallelize under --sweep-threads.
  static constexpr std::uint32_t warm_chunk_points = 8;
  /// Host nanoseconds spent resetting replicas (cache flush + noise reseed)
  /// across every batch run against this pool. Always accumulated (unlike
  /// the metrics-gated replica.reset_ns observe) so the stage runner can
  /// attribute reset time per stage in the report.
  std::uint64_t reset_ns = 0;
  /// Run-ahead results waiting for their commit: at most one round of
  /// run_chase_ahead(), cleared with the memo on an epoch change.
  std::vector<AheadResult> ahead;
  ChaseAheadStats ahead_stats;
};

struct ChaseBatchOptions {
  /// Total parallelism including the calling thread; 1 = serial reference
  /// (strict spec order, no executor involved).
  std::uint32_t threads = 1;
  /// Executor to fan out on when threads > 1; nullptr = the pool's
  /// executor, else shared_executor().
  exec::Executor* executor = nullptr;
  /// Optional replica + memo cache reused across calls (see ReplicaPool).
  ReplicaPool* pool = nullptr;
  /// Answer repeated specs from the pool's memo instead of re-running them.
  /// Disable for callers that need every spec executed.
  bool memoize = true;
};

/// Backwards-compatible name from the plain-chase-only engine.
using PChaseBatchOptions = ChaseBatchOptions;

/// Deterministic noise-stream seed of one batched chase: a stable mix of the
/// owning Gpu's construction seed and every result-relevant spec field.
/// Two specs differing in any field get statistically independent streams;
/// the same (seed, spec) always maps to the same stream. Exception:
/// PChaseConfig::max_timed_steps is deliberately not folded — capping the
/// timed pass does not change which loads the recorded prefix executes, so
/// capped and uncapped variants of one config agree on their prefix.
std::uint64_t chase_noise_seed(std::uint64_t gpu_seed,
                               const PChaseConfig& config);
std::uint64_t chase_noise_seed(std::uint64_t gpu_seed, const ChaseSpec& spec);

/// Runs every spec (see file comment for the execution model) and returns
/// results in spec order. The engine (compiled/reference) active on the
/// calling thread is propagated to the worker threads. Results answered from
/// the memo (or duplicated within the batch) carry from_cache == true and
/// the cycles of the run they replay, as the real tool would run the chase
/// again. A memo miss waiting in the pool's run-ahead table is committed
/// instead of executed (see file comment).
std::vector<PChaseResult> run_chase_batch(
    sim::Gpu& gpu, std::span<const ChaseSpec> specs,
    const ChaseBatchOptions& options = {});

/// Participants a batch run with @p options can actually get: its threads,
/// capped by the executor's pool threads plus the caller. Resolves the
/// executor only when threads > 1, so a serial caller never starts the
/// shared pool.
std::uint32_t batch_participants(const ChaseBatchOptions& options);

/// Run-ahead (see file comment): executes @p specs and leaves their results
/// in options.pool's run-ahead table (no pool: no-op).
/// specs[0] is the probe the caller needs next and always runs; the rest
/// are speculative and run only on a participant that claims one while
/// specs[0] is still running, so speculation spends idle participants and
/// never delays the caller by more than one probe running beside its own.
/// If specs[0] is already answerable (memo or a waiting result) nothing
/// runs: the round that produced it still covers what follows. Otherwise
/// waiting results of an earlier round that @p specs does not name are
/// discarded first — a serial search never returns to a probe it moved
/// past — so the table holds one round at most. Specs the memo answers are
/// skipped; chases carry "chase.ahead" spans instead of "chase.run".
void run_chase_ahead(sim::Gpu& gpu, std::span<const ChaseSpec> specs,
                     const ChaseBatchOptions& options);

/// Drops every waiting run-ahead result of @p pool, counting each as
/// discarded (ChaseAheadStats and the chase.ahead_discarded metric).
void discard_chase_ahead(ReplicaPool& pool);

/// Plain-chase convenience wrapper: wraps each config in ChaseSpec::plain.
std::vector<PChaseResult> run_pchase_batch(
    sim::Gpu& gpu, std::span<const PChaseConfig> configs,
    const ChaseBatchOptions& options = {});

}  // namespace mt4g::runtime
