#include "runtime/batch.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mt4g::runtime {

sim::Gpu fork_replica(const sim::Gpu& owner) {
  const obs::SpanGuard span("replica.fork");
  const bool timed = obs::metrics_enabled();
  const std::uint64_t start_ns = timed ? obs::monotonic_ns() : 0;
  sim::Gpu replica = owner.fork(owner.seed());
  if (timed) {
    obs::Metrics::instance().observe(
        "replica.fork_ns",
        static_cast<double>(obs::monotonic_ns() - start_ns));
  }
  return replica;
}

namespace {

/// Splitmix-based field folder shared by the seed and memo-hash paths. The
/// constant decorrelates the chase streams from the owning Gpu's own stream
/// (which Xoshiro256 seeds from the same value).
struct SeedFolder {
  std::uint64_t state;

  explicit SeedFolder(std::uint64_t gpu_seed)
      : state(gpu_seed ^ 0xA3C59AC2B1F9D0E5ULL) {}

  void fold(std::uint64_t value) {
    // Keep the mixed output, not just the advanced counter: the avalanche is
    // what makes near-identical specs (e.g. swapped sm/core indices or a
    // shared flipped bit across two fields) land on unrelated streams.
    state ^= value;
    state = splitmix64(state);
  }

  void fold_config(const PChaseConfig& config) {
    fold(static_cast<std::uint64_t>(config.space));
    fold(config.flags.bypass_l1 ? 1 : 0);
    fold(config.base);
    fold(config.array_bytes);
    fold(config.stride_bytes);
    fold(config.record_count);
    fold(config.warmup ? 1 : 0);
    fold(config.where.sm);
    fold(config.where.core);
    fold(config.resample);
    // max_timed_steps deliberately excluded — see the header contract.
  }

  std::uint64_t finish() { return splitmix64(state); }
};

}  // namespace

std::uint64_t chase_noise_seed(std::uint64_t gpu_seed,
                               const PChaseConfig& config) {
  SeedFolder folder(gpu_seed);
  folder.fold_config(config);
  return folder.finish();
}

std::uint64_t chase_noise_seed(std::uint64_t gpu_seed, const ChaseSpec& spec) {
  // Plain specs fold exactly like a bare config, so the plain wrapper and
  // the spec path agree on every stream.
  if (spec.kind == ChaseKind::kPlain) {
    return chase_noise_seed(gpu_seed, spec.config);
  }
  SeedFolder folder(gpu_seed);
  folder.fold(static_cast<std::uint64_t>(spec.kind));
  folder.fold_config(spec.config);
  if (spec.kind == ChaseKind::kSharing) {
    folder.fold_config(spec.config_b);
  } else {
    folder.fold(spec.partner);
    folder.fold(spec.base_b);
  }
  return folder.finish();
}

namespace {

/// Probes one pool's own memo map (no upstream recursion).
const PChaseResult* find_in_memo(const ReplicaPool& pool, std::uint64_t hash,
                                 const ChaseSpec& spec) {
  const auto bucket = pool.memo.find(hash);
  if (bucket == pool.memo.end()) return nullptr;
  const auto hit = std::find_if(
      bucket->second.begin(), bucket->second.end(),
      [&](const auto& entry) { return entry.first == spec; });
  return hit == bucket->second.end() ? nullptr : &hit->second;
}

/// Probes the pool's memo, then its upstream (ancestor) memos in order.
const PChaseResult* probe_memo(const ReplicaPool& pool, std::uint64_t hash,
                               const ChaseSpec& spec) {
  if (const PChaseResult* own = find_in_memo(pool, hash, spec)) return own;
  for (const ReplicaPool* parent : pool.upstream) {
    if (const PChaseResult* hit = find_in_memo(*parent, hash, spec)) {
      return hit;
    }
  }
  return nullptr;
}

/// The pool's waiting run-ahead result for @p spec, or ahead.end().
std::vector<AheadResult>::iterator find_ahead(ReplicaPool& pool,
                                              const ChaseSpec& spec) {
  return std::find_if(
      pool.ahead.begin(), pool.ahead.end(),
      [&](const AheadResult& waiting) { return waiting.spec == spec; });
}

/// Drops the waiting run-ahead results from @p from on, counting them as
/// discarded.
void drop_ahead(ReplicaPool& pool, std::vector<AheadResult>::iterator from) {
  const auto count = static_cast<std::uint64_t>(pool.ahead.end() - from);
  if (count == 0) return;
  pool.ahead_stats.discarded += count;
  if (obs::metrics_enabled()) {
    obs::Metrics::instance().add("chase.ahead_discarded",
                                 static_cast<double>(count));
  }
  pool.ahead.erase(from, pool.ahead.end());
}

/// Drops pool state measured against an older cache geometry.
void sync_epoch(ReplicaPool& pool, const sim::Gpu& gpu) {
  if (pool.epoch != gpu.path_epoch()) {
    // The owning Gpu rebuilt caches: replicas hold the old geometry, and
    // memoized and run-ahead results were measured against it.
    pool.replicas.clear();
    pool.memo.clear();
    drop_ahead(pool, pool.ahead.begin());
  }
  pool.epoch = gpu.path_epoch();
}

exec::Executor& batch_executor(const ReplicaPool& pool) {
  return pool.executor ? *pool.executor : exec::shared_executor();
}

/// One batch's execution plan and, once run_units() ran it, its outputs.
/// Every output slot is written by the one unit that owns it, so any
/// schedule yields the same bytes.
struct Plan {
  std::span<const ChaseSpec> specs;
  std::vector<std::uint64_t> seeds;   ///< per spec: noise seed = memo key
  std::vector<std::size_t> units;     ///< spec indices, one cold chase each
  std::vector<PChaseResult> results;  ///< per spec
  std::vector<char> ran;  ///< per unit

  explicit Plan(std::span<const ChaseSpec> batch)
      : specs(batch), seeds(batch.size()), results(batch.size()) {}
};

/// Runs plan.units on the pool's slot replicas with at most pool.threads
/// participants. Units from @p needed on are speculative: a participant
/// that claims one after every needed unit finished skips it.
void run_units(sim::Gpu& gpu, ReplicaPool& pool, Plan& plan,
               std::size_t needed, const char* chase_span) {
  const std::vector<std::size_t>& units = plan.units;
  plan.ran.assign(units.size(), 0);
  if (units.empty()) return;
  const PChaseEngine engine = pchase_engine();

  // At most one participant per unit. A slot's replica is forked when the
  // slot runs its first unit, so a participant the executor never
  // delivered costs no fork; the slot table is sized up front so slots
  // only ever touch their own entry.
  const auto workers = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      std::max<std::uint32_t>(pool.threads, 1), units.size()));
  if (pool.replicas.size() < workers) pool.replicas.resize(workers);
  const auto slot_replica = [&](std::uint32_t slot) -> sim::Gpu& {
    std::optional<sim::Gpu>& replica = pool.replicas[slot];
    if (!replica) replica.emplace(fork_replica(gpu));
    return *replica;
  };
  std::vector<std::uint64_t> slot_reset_ns(workers, 0);

  const auto execute = [&](std::size_t index, std::uint32_t slot) {
    sim::Gpu& replica = slot_replica(slot);
    {
      const obs::SpanGuard reset_span("replica.reset");
      const std::uint64_t reset_start = obs::monotonic_ns();
      const std::uint64_t caches_before = replica.flushed_caches();
      const std::uint64_t sets_before = replica.flushed_sets();
      const std::uint64_t dropped_before = replica.fills_dropped();
      const std::uint64_t pages_before = replica.pages_written();
      replica.flush_caches();
      // The memo key IS the noise-stream seed (both are the full spec fold).
      replica.reseed_noise(plan.seeds[index]);
      const std::uint64_t reset_ns = obs::monotonic_ns() - reset_start;
      slot_reset_ns[slot] += reset_ns;
      if (obs::metrics_enabled()) {
        obs::Metrics& metrics = obs::Metrics::instance();
        metrics.observe("replica.reset_ns", static_cast<double>(reset_ns));
        metrics.add("sim.flushed_caches",
                    static_cast<double>(replica.flushed_caches() -
                                        caches_before));
        metrics.add("sim.flushed_sets",
                    static_cast<double>(replica.flushed_sets() -
                                        sets_before));
        metrics.add("sim.pages_written",
                    static_cast<double>(replica.pages_written() -
                                        pages_before));
        metrics.add("sim.fills_dropped",
                    static_cast<double>(replica.fills_dropped() -
                                        dropped_before));
      }
    }
    const ScopedPChaseEngine scope(engine);  // workers default to kCompiled
    const obs::SpanGuard chase(chase_span);
    plan.results[index] = run_chase(replica, plan.specs[index]);
  };

  std::atomic<std::size_t> needed_left{std::min(needed, units.size())};
  const auto run_unit = [&](std::size_t u, std::uint32_t slot) {
    if (u >= needed && needed_left.load() == 0) {
      return;  // too late to run beside a needed unit
    }
    execute(units[u], slot);
    plan.ran[u] = 1;
    if (u < needed) needed_left.fetch_sub(1);
  };
  if (workers == 1) {
    for (std::size_t u = 0; u < units.size(); ++u) run_unit(u, 0);
  } else {
    batch_executor(pool).parallel_for(units.size(), workers, run_unit);
  }
  for (const std::uint64_t ns : slot_reset_ns) pool.reset_ns += ns;
}

}  // namespace

PChaseResult run_chase(sim::Gpu& gpu, const ChaseSpec& spec) {
  switch (spec.kind) {
    case ChaseKind::kPlain:
      return run_pchase(gpu, spec.config);
    case ChaseKind::kAmount:
      return run_amount_pchase(gpu, spec.config, spec.partner, spec.base_b);
    case ChaseKind::kSharing:
      return run_sharing_pchase(gpu, spec.config, spec.config_b);
    case ChaseKind::kDualCu:
      return run_dual_cu_pchase(gpu, spec.config, spec.partner, spec.base_b);
  }
  return {};
}

std::uint32_t batch_participants(const ReplicaPool& pool) {
  if (pool.threads <= 1) return 1;
  return std::min(pool.threads, batch_executor(pool).pool_threads() + 1);
}

void discard_chase_ahead(ReplicaPool& pool) {
  drop_ahead(pool, pool.ahead.begin());
}

void run_chase_ahead(sim::Gpu& gpu, std::span<const ChaseSpec> specs,
                     ReplicaPool& pool) {
  if (specs.empty()) return;
  sync_epoch(pool, gpu);
  Plan plan(specs);
  std::vector<std::size_t> todo;  // specs to run, first occurrences
  for (std::size_t i = 0; i < specs.size(); ++i) {
    plan.seeds[i] = chase_noise_seed(gpu.seed(), specs[i]);
    const bool answerable =
        probe_memo(pool, plan.seeds[i], specs[i]) ||
        find_ahead(pool, specs[i]) != pool.ahead.end() ||
        std::any_of(todo.begin(), todo.end(),
                    [&](std::size_t j) { return specs[j] == specs[i]; });
    if (!answerable) todo.push_back(i);
  }
  if (todo.empty() || todo.front() != 0) return;  // specs[0] is answerable

  // A new round: waiting results it does not name were moved past.
  drop_ahead(pool, std::stable_partition(
                       pool.ahead.begin(), pool.ahead.end(),
                       [&](const AheadResult& waiting) {
                         return std::find(specs.begin(), specs.end(),
                                          waiting.spec) != specs.end();
                       }));

  plan.units = std::move(todo);
  run_units(gpu, pool, plan, /*needed=*/1, "chase.ahead");

  for (std::size_t u = 0; u < plan.units.size(); ++u) {
    if (!plan.ran[u]) continue;
    const std::size_t i = plan.units[u];
    pool.ahead.push_back({specs[i], std::move(plan.results[i])});
    ++pool.ahead_stats.ran;
  }
}

std::vector<PChaseResult> run_chase_batch(sim::Gpu& gpu,
                                          std::span<const ChaseSpec> specs,
                                          ReplicaPool* pool_or_null) {
  if (specs.empty()) return {};
  const obs::SpanGuard batch_span("chase.batch");

  ReplicaPool local_pool;
  ReplicaPool& pool = pool_or_null ? *pool_or_null : local_pool;
  sync_epoch(pool, gpu);
  Plan plan(specs);
  std::vector<PChaseResult>& results = plan.results;

  // Resolve memo hits, intra-batch duplicates and run-ahead commits in spec
  // order, before any chase runs, so which index counts as the run (and
  // which as a replay) is a function of the batch contents alone.
  std::vector<std::size_t> pending;  // first occurrences: run or committed
  std::vector<std::ptrdiff_t> copy_from(specs.size(), -1);
  // hash -> the first pending index with that hash, and per pending index
  // the next one with the same hash: duplicate detection stays linear even
  // for the N^2-pair CU-sharing batches, with no allocation per spec.
  constexpr std::size_t kNone = ~std::size_t{0};
  std::unordered_map<std::uint64_t, std::size_t> first_seen;
  first_seen.reserve(specs.size());
  std::vector<std::size_t> next_seen(specs.size(), kNone);
  std::uint64_t commits = 0;
  const std::uint64_t memo_hits_before = pool.memo_stats.hits;
  {
    const obs::SpanGuard memo_span("memo.resolve");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::uint64_t hash = chase_noise_seed(gpu.seed(), specs[i]);
      plan.seeds[i] = hash;
      if (const PChaseResult* hit = probe_memo(pool, hash, specs[i])) {
        results[i] = *hit;
        results[i].from_cache = true;
        ++pool.memo_stats.hits;
        continue;
      }
      const auto [seen, first] = first_seen.try_emplace(hash, i);
      if (!first) {
        std::size_t j = seen->second;
        while (!(specs[j] == specs[i]) && next_seen[j] != kNone) {
          j = next_seen[j];
        }
        if (specs[j] == specs[i]) {
          copy_from[i] = static_cast<std::ptrdiff_t>(j);
          continue;
        }
        next_seen[j] = i;
      }
      pending.push_back(i);
      const auto waiting = find_ahead(pool, specs[i]);
      if (waiting == pool.ahead.end()) {
        plan.units.push_back(i);  // runs cold, alone
        continue;
      }
      results[i] = std::move(waiting->result);
      ++commits;
      pool.ahead.erase(waiting);
    }
  }

  if (!pending.empty()) {
    run_units(gpu, pool, plan, /*needed=*/plan.units.size(), "chase.run");

    pool.memo_stats.misses += pending.size();
    pool.memo.reserve(pool.memo.size() + pending.size());
    for (const std::size_t i : pending) {
      pool.memo[plan.seeds[i]].emplace_back(specs[i], results[i]);
    }
  }

  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (copy_from[i] < 0) continue;
    results[i] = results[static_cast<std::size_t>(copy_from[i])];
    results[i].from_cache = true;
    ++pool.memo_stats.hits;
  }
  pool.ahead_stats.used += commits;
  if (obs::metrics_enabled()) {
    obs::Metrics& metrics = obs::Metrics::instance();
    const std::uint64_t hits = pool.memo_stats.hits - memo_hits_before;
    if (hits > 0) metrics.add("memo.hits", static_cast<double>(hits));
    if (!pending.empty()) {
      metrics.add("memo.misses", static_cast<double>(pending.size()));
    }
    if (commits > 0) {
      metrics.add("chase.ahead_used", static_cast<double>(commits));
    }
  }
  return std::move(plan.results);
}

}  // namespace mt4g::runtime
