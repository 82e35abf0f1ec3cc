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

/// Splitmix-based field folder of the chase noise seeds. The constant
/// decorrelates the chase streams from the owning Gpu's own stream
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
  // Of array B, fold only what the kind's factory takes: the rest is a copy
  // of the timed config, already folded.
  if (spec.kind == ChaseKind::kAmount) {
    folder.fold(spec.config_b.where.core);
    folder.fold(spec.config_b.base);
  } else if (spec.kind == ChaseKind::kDualCu) {
    folder.fold(spec.config_b.where.sm);
    folder.fold(spec.config_b.base);
  } else {
    folder.fold_config(spec.config_b);
  }
  return folder.finish();
}

namespace {

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

exec::Executor& batch_executor(const ReplicaPool& pool) {
  return pool.executor ? *pool.executor : exec::shared_executor();
}

/// One batch's execution plan and, once run_units() ran it, its outputs.
/// Every output slot is written by the one unit that owns it, so any
/// schedule yields the same bytes.
struct Plan {
  std::span<const ChaseSpec> specs;
  std::vector<std::size_t> units;     ///< spec indices, one cold chase each
  std::vector<PChaseResult> results;  ///< per spec
  std::vector<char> ran;  ///< per unit

  explicit Plan(std::span<const ChaseSpec> batch)
      : specs(batch), results(batch.size()) {}
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
      // Every chase ends with its own flush, booked by its timed pass, so
      // this one finds nothing listed unless a chase threw midway.
      replica.flush_caches();
      replica.reseed_noise(chase_noise_seed(gpu.seed(), plan.specs[index]));
      const std::uint64_t reset_ns = obs::monotonic_ns() - reset_start;
      slot_reset_ns[slot] += reset_ns;
      if (obs::metrics_enabled()) {
        obs::Metrics::instance().observe("replica.reset_ns",
                                         static_cast<double>(reset_ns));
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
  if (spec.kind == ChaseKind::kPlain) return run_pchase(gpu, spec.config);
  return run_two_array_pchase(gpu, spec.config, spec.config_b);
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
  Plan plan(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (find_ahead(pool, specs[i]) == pool.ahead.end()) plan.units.push_back(i);
  }
  if (plan.units.empty() || plan.units.front() != 0) return;  // specs[0] waits

  // A new round: waiting results it does not name were moved past.
  drop_ahead(pool, std::stable_partition(
                       pool.ahead.begin(), pool.ahead.end(),
                       [&](const AheadResult& waiting) {
                         return std::find(specs.begin(), specs.end(),
                                          waiting.spec) != specs.end();
                       }));

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
  Plan plan(specs);

  // A spec waiting in the run-ahead table is committed; every other spec
  // runs cold, alone.
  std::uint64_t commits = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto waiting = find_ahead(pool, specs[i]);
    if (waiting == pool.ahead.end()) {
      plan.units.push_back(i);
      continue;
    }
    plan.results[i] = std::move(waiting->result);
    pool.ahead.erase(waiting);
    ++commits;
  }
  run_units(gpu, pool, plan, /*needed=*/plan.units.size(), "chase.run");

  pool.chases += specs.size();
  pool.ahead_stats.used += commits;
  if (commits > 0 && obs::metrics_enabled()) {
    obs::Metrics::instance().add("chase.ahead_used",
                                 static_cast<double>(commits));
  }
  return std::move(plan.results);
}

}  // namespace mt4g::runtime
