// The chase-plan engine: batched execution of any p-chase kind.
//
// A ChaseSpec describes one measurement of any of the four chase kinds the
// tool uses — plain (size/line-size/latency style), amount (A/B/A on two
// cores), sharing (two logical spaces), dual-CU (AMD sL1d) — as pure data.
// The three two-array kinds run one kernel, run_two_array_pchase(); their
// kind only says how array B differs from array A, and names the noise
// stream. run_chase_batch() runs a list of independent specs and returns one
// PChaseResult per spec, in spec order. Each chase runs cold and on its own,
// as MT4G runs each p-chase as a kernel of its own (paper Sec. IV-A/B): on a
// Gpu replica (Gpu::fork) whose caches the previous chase left flushed and
// whose noise stream is re-seeded from (gpu seed, spec) via
// chase_noise_seed() immediately before the chase warms and times its
// arrays (run_chase). So a chase's
// result is a pure function of the owning Gpu's seed and its own spec. That
// makes the result vector byte-identical for every thread count, including
// the threads == 1 serial reference mode, which is what
// bench/discovery_hotpath and the sweep-engine tests assert.
//
// A batch runs as its ReplicaPool says: ReplicaPool::threads participants,
// the caller included, on ReplicaPool::executor. The discovery stage runner
// sets both once per stage; a batch called without a pool runs serially on
// a pool local to the call.
//
// The trade-off is explicit: batched chases do NOT share a noise stream with
// the owning Gpu (each is re-seeded from its spec), so routing a measurement
// through the batch changes its noise realisation relative to the
// serial-on-the-main-Gpu path. The benchmark layer accepts this — detection
// is robust by construction — in exchange for parallelism.
//
// The cost rule: every result carries the cycles the real tool would spend
// on its spec — its whole warm walk from cold and its whole timed pass (see
// kernels.hpp). Every spec a batch names runs, duplicates and repeats of
// earlier batches included, as the real tool runs each kernel it launches.
// So every result equals an isolated cold run of its spec, in cycles as in
// measurements, for every thread count, engine, batch composition and
// history.
//
// That independence is what run-ahead rests on. run_chase_ahead() executes
// probes a serial search may need next — on participants that would idle
// otherwise — each as a cold singleton, and leaves its result in the pool's
// run-ahead table. The commit rule: a later run_chase_batch() that finds a
// spec in that table takes the stored result instead of executing it, and
// counts it exactly as if it had just run. Chase counts and hence report
// bytes are those of the serial search; only wall time changes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "exec/executor.hpp"
#include "runtime/kernels.hpp"
#include "sim/gpu.hpp"

namespace mt4g::runtime {

/// The four chase kinds of the benchmark suite (paper IV-A/F/G/H).
enum class ChaseKind : std::uint8_t {
  kPlain,    ///< warm-up + timed pass over one array
  kAmount,   ///< core A warms, core B warms a second array, core A timed
  kSharing,  ///< warm space A, warm space B, timed on A
  kDualCu,   ///< CU A warms, CU B warms a second array, CU A timed
};

/// One chase of any kind, as pure data. Equality spans every
/// result-relevant field, which is what a run-ahead commit matches on.
struct ChaseSpec {
  ChaseKind kind = ChaseKind::kPlain;
  PChaseConfig config{};    ///< the timed chase (and its own warm-up)
  PChaseConfig config_b{};  ///< two-array kinds: array B's warm-up chase

  bool operator==(const ChaseSpec&) const = default;

  static ChaseSpec plain(const PChaseConfig& config) {
    return ChaseSpec{ChaseKind::kPlain, config, {}};
  }
  /// Array B: @p config's chase at @p base_b, run by core @p core_b.
  static ChaseSpec amount(const PChaseConfig& config, std::uint32_t core_b,
                          std::uint64_t base_b) {
    PChaseConfig config_b = config;
    config_b.base = base_b;
    config_b.where.core = core_b;
    return ChaseSpec{ChaseKind::kAmount, config, config_b};
  }
  static ChaseSpec sharing(const PChaseConfig& config_a,
                           const PChaseConfig& config_b) {
    return ChaseSpec{ChaseKind::kSharing, config_a, config_b};
  }
  /// Array B: @p config's chase at @p base_b, run on CU @p cu_b.
  static ChaseSpec dual_cu(const PChaseConfig& config, std::uint32_t cu_b,
                           std::uint64_t base_b) {
    PChaseConfig config_b = config;
    config_b.base = base_b;
    config_b.where.sm = cu_b;
    return ChaseSpec{ChaseKind::kDualCu, config, config_b};
  }
};

/// Executes one spec on @p gpu as-is: no replica, no reset. The batch
/// runner calls this on a reset replica; tests can call it directly.
PChaseResult run_chase(sim::Gpu& gpu, const ChaseSpec& spec);

/// A probe run_chase_ahead() executed and nobody committed yet: its result,
/// as run_chase_batch() would return it.
struct AheadResult {
  ChaseSpec spec;
  PChaseResult result;
};

/// How run-ahead fared on one pool: every probe that ran is eventually
/// used (committed by run_chase_batch) or discarded.
struct ChaseAheadStats {
  std::uint64_t ran = 0;
  std::uint64_t used = 0;
  std::uint64_t discarded = 0;
};

/// Reusable replicas for repeated batch calls against the same owning Gpu:
/// a replica forked by one batch serves every later batch on the pool, as
/// the owner's cache geometry is fixed at construction. A pool must not be
/// shared across different owning Gpus (Gpu::fork replicas of one owner,
/// which keep the owner's seed, count as the same owning Gpu). The pool is
/// also the one description of how its batches run: threads and executor.
struct ReplicaPool {
  /// One replica per executor slot, forked when the slot runs its first
  /// unit: replicas exist only for slots that ran, never for participants a
  /// batch was allowed but did not get. A fork costs empty page tables; a
  /// replica holds the cache pages its chases wrote.
  std::vector<std::optional<sim::Gpu>> replicas;
  /// Specs run_chase_batch answered on this pool, each run or committed
  /// from run-ahead: a function of the batches alone, never of scheduling.
  std::uint64_t chases = 0;
  /// Participants of this pool's batches, the calling thread included;
  /// 1 = the serial reference (strict spec order, no executor involved).
  /// The stage runner sets it to DiscoverOptions::sweep_threads.
  std::uint32_t threads = 1;
  /// Executor this pool's batches fan out on when threads > 1; nullptr =
  /// exec::shared_executor(), resolved only by a batch that fans out. The
  /// stage runner sets it to DiscoverOptions::bench_executor, the executor
  /// its graph runs on, so idle stage workers can help; tests set their own.
  exec::Executor* executor = nullptr;
  /// Host nanoseconds spent resetting replicas (the noise reseed: each
  /// chase flushes its replica at the end of its timed pass) across every
  /// batch run against this pool. Always accumulated (unlike
  /// the metrics-gated replica.reset_ns observe) so the stage runner can
  /// attribute reset time per stage in the report.
  std::uint64_t reset_ns = 0;
  /// Run-ahead results waiting for their commit: at most one round of
  /// run_chase_ahead().
  std::vector<AheadResult> ahead;
  ChaseAheadStats ahead_stats;
};

/// Deterministic noise-stream seed of one batched chase: a stable mix of the
/// owning Gpu's construction seed and every result-relevant spec field.
/// Two specs differing in any field get statistically independent streams;
/// the same (seed, spec) always maps to the same stream. Exception:
/// PChaseConfig::max_timed_steps is deliberately not folded — capping the
/// timed pass does not change which loads the recorded prefix executes, so
/// capped and uncapped variants of one config agree on their prefix. Of
/// array B, an amount spec folds B's core and base, a dual-CU spec B's CU
/// and base, and a sharing spec all of B's config: the fields each kind's
/// factory takes.
std::uint64_t chase_noise_seed(std::uint64_t gpu_seed,
                               const PChaseConfig& config);
std::uint64_t chase_noise_seed(std::uint64_t gpu_seed, const ChaseSpec& spec);

/// Runs every spec (see file comment for the execution model) on @p pool,
/// or serially on a pool local to the call, and returns results in spec
/// order. The engine (compiled/reference) active on the calling thread is
/// propagated to the worker threads. A spec waiting in the pool's run-ahead
/// table is committed instead of executed (see file comment).
std::vector<PChaseResult> run_chase_batch(sim::Gpu& gpu,
                                          std::span<const ChaseSpec> specs,
                                          ReplicaPool* pool = nullptr);

/// Participants a batch on @p pool can actually get: its threads, capped by
/// the executor's pool threads plus the caller. Resolves the executor only
/// when threads > 1, so a serial caller never starts the shared pool.
std::uint32_t batch_participants(const ReplicaPool& pool);

/// Forks a replica of @p owner, traced as a replica.fork span and timed
/// into replica.fork_ns. The replica keeps the owner's seed, which the
/// stage runner's substrates need: their direct chases and (seed, spec)
/// noise streams derive from it. Batches fork their slot replicas here too
/// and re-seed them before every chase.
sim::Gpu fork_replica(const sim::Gpu& owner);

/// Run-ahead (see file comment): executes @p specs and leaves their results
/// in @p pool's run-ahead table.
/// specs[0] is the probe the caller needs next and always runs; the rest
/// are speculative and run only on a participant that claims one while
/// specs[0] is still running, so speculation spends idle participants and
/// never delays the caller by more than one probe running beside its own.
/// If specs[0] is already waiting nothing runs: the round that produced it
/// still covers what follows. Otherwise waiting results of an earlier round
/// that @p specs does not name are discarded first — a serial search never
/// returns to a probe it moved past — so the table holds one round at most.
/// Specs already waiting are skipped; chases carry "chase.ahead" spans
/// instead of "chase.run".
void run_chase_ahead(sim::Gpu& gpu, std::span<const ChaseSpec> specs,
                     ReplicaPool& pool);

/// Drops every waiting run-ahead result of @p pool, counting each as
/// discarded (ChaseAheadStats and the chase.ahead_discarded metric).
void discard_chase_ahead(ReplicaPool& pool);

}  // namespace mt4g::runtime
