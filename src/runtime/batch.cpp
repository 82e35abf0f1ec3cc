#include "runtime/batch.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mt4g::runtime {
namespace {

/// Forks a fresh replica of @p owner, traced as a replica.fork span and
/// timed into replica.fork_ns. The fork seed is irrelevant: every user
/// resets the replica before use.
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

}  // namespace

sim::Gpu ReplicaCache::acquire(const sim::Gpu& owner) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (epoch_ != owner.path_epoch()) {
      free_.clear();  // cached forks hold the old cache geometry
      epoch_ = owner.path_epoch();
    }
    if (!free_.empty()) {
      sim::Gpu replica = std::move(free_.back());
      free_.pop_back();
      return replica;
    }
  }
  return fork_replica(owner);
}

void ReplicaCache::release(sim::Gpu&& replica) {
  // A fork starts at path epoch 0; a non-zero epoch means someone rebuilt
  // the replica's caches (set_l2_fetch_granularity). Flush/reseed/rewind
  // cannot restore geometry, so such a replica must not be recycled.
  if (replica.path_epoch() != 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(replica));
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
    // memoized results, warm states and run-ahead results were measured
    // against it.
    pool.replicas.clear();
    pool.memo.clear();
    pool.warm_ledger.clear();
    pool.warm_state_bytes = 0;
    drop_ahead(pool, pool.ahead.begin());
  }
  pool.epoch = gpu.path_epoch();
}

exec::Executor& batch_executor(const ChaseBatchOptions& options,
                               const ReplicaPool* pool) {
  if (options.executor) return *options.executor;
  if (pool && pool->executor) return *pool->executor;
  return exec::shared_executor();
}

/// Plain warm-up chases share warm walks. Resample chases are excluded by
/// contract: they exist to be genuinely independent re-measurements and
/// always run cold.
bool warm_shareable(const ChaseSpec& spec) {
  return spec.kind == ChaseKind::kPlain && spec.config.warmup &&
         spec.config.resample == 0;
}

WarmKey warm_key_of(const PChaseConfig& config) {
  return {config.space,    config.flags.bypass_l1, config.base,
          config.stride_bytes, config.where.sm,    config.where.core};
}

std::uint64_t walk_steps(const PChaseConfig& config) {
  return config.array_bytes / config.stride_bytes;
}

/// Timed-pass length of a plain config (the max_timed_steps cap applied).
std::uint64_t timed_steps_of(const PChaseConfig& config) {
  const std::uint64_t steps = walk_steps(config);
  return config.max_timed_steps != 0 ? std::min(steps, config.max_timed_steps)
                                     : steps;
}

/// Where a walk of @p steps resumes: the longest ledger walk of @p key with
/// at most @p steps, or nullptr (walk from cold).
const WarmStateEntry* resume_point(const ReplicaPool& pool,
                                   const WarmKey& key, std::uint64_t steps) {
  const auto ledger = pool.warm_ledger.find(key);
  if (ledger == pool.warm_ledger.end()) return nullptr;
  const WarmStateEntry* best = nullptr;
  for (const WarmStateEntry& e : ledger->second) {
    if (e.steps <= steps && (best == nullptr || e.steps > best->steps)) {
      best = &e;
    }
  }
  return best;
}

/// Ceiling on the timed-pass length of a chase that may run mid-chunk: its
/// cache footprint must be snapshot/restored around the timed pass, and the
/// prefix snapshot cost is linear in this bound. Record-only chases cap
/// their timed pass at record_count (typically 512), far below this; a chase
/// above the ceiling (a full-pass bisection probe) still joins a chunk but
/// only as its final member, where no restore-after is needed.
constexpr std::uint64_t kPrefixShareCap = 4096;

/// Hard cap on snapshots per key — a runaway-loop backstop far above any
/// real sweep grid, not a tuning knob.
constexpr std::size_t kWarmLedgerCap = 1024;

/// Records a chain's end-of-warm snapshot in the pool ledger, kept sorted
/// by walk length. A walk length already recorded keeps its snapshot (the
/// state is a pure function of the walk), and a snapshot that would exceed
/// the byte budget is not kept: the ledger only lets later chunks skip warm
/// work, it never decides a result.
void insert_ledger_entry(ReplicaPool& pool, const WarmKey& key,
                         WarmStateEntry&& entry) {
  const std::uint64_t bytes = entry.state.byte_size();
  if (pool.warm_state_bytes + bytes > pool.warm_state_budget) return;
  auto& entries = pool.warm_ledger[key];
  const auto at = std::lower_bound(
      entries.begin(), entries.end(), entry.steps,
      [](const WarmStateEntry& e, std::uint64_t steps) {
        return e.steps < steps;
      });
  if (at != entries.end() && at->steps == entry.steps) return;
  pool.warm_state_bytes += bytes;
  entries.insert(at, std::move(entry));
  if (entries.size() > kWarmLedgerCap) {
    // Drop the second-smallest walk: the floor and the long walks (where
    // re-warming is expensive) survive.
    pool.warm_state_bytes -= entries[1].state.byte_size();
    entries.erase(entries.begin() + 1);
  }
}

/// What one worker slot runs back-to-back on one replica: either a cold
/// singleton (the classic reset-then-run path) or a chunk of one warm chain
/// that warms incrementally and snapshot/restores around each bounded timed
/// pass.
struct Unit {
  std::vector<std::size_t> indices;  ///< spec indices, chain order
  bool chunk = false;
  const WarmStateEntry* restore = nullptr;  ///< ledger walk to resume from
  bool save = false;  ///< capture the end-of-warm state of the last member
};

/// One batch's execution plan and, once run_units() ran it, its outputs.
/// Every output slot is written by the one unit that owns it, so any
/// schedule yields the same bytes.
struct Plan {
  std::span<const ChaseSpec> specs;
  std::vector<std::uint64_t> seeds;   ///< per spec: noise seed = memo key
  std::vector<Unit> units;
  std::vector<PChaseResult> results;  ///< per spec
  /// Per unit: the end state of its last member's warm walk, if save.
  std::vector<std::optional<WarmStateEntry>> saved;
  std::vector<char> ran;  ///< per unit

  explicit Plan(std::span<const ChaseSpec> batch)
      : specs(batch), seeds(batch.size()), results(batch.size()) {}
};

/// Runs plan.units on the pool's slot replicas with at most options.threads
/// participants. Units from @p needed on are speculative: a participant
/// that claims one after every needed unit finished skips it.
void run_units(sim::Gpu& gpu, ReplicaPool& pool,
               const ChaseBatchOptions& options, Plan& plan,
               std::size_t needed, const char* chase_span) {
  const std::vector<Unit>& units = plan.units;
  plan.saved.resize(units.size());
  plan.ran.assign(units.size(), 0);
  if (units.empty()) return;
  const PChaseEngine engine = pchase_engine();

  // At most one participant per unit. A slot's replica is acquired when
  // the slot runs its first unit, so a participant the executor never
  // delivered costs no fork; the slot table is sized up front so slots
  // only ever touch their own entry.
  const auto workers = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      std::max<std::uint32_t>(options.threads, 1), units.size()));
  if (pool.replicas.size() < workers) pool.replicas.resize(workers);
  const auto slot_replica = [&](std::uint32_t slot) -> sim::Gpu& {
    std::optional<sim::Gpu>& replica = pool.replicas[slot];
    if (!replica) {
      replica.emplace(pool.replica_cache ? pool.replica_cache->acquire(gpu)
                                         : fork_replica(gpu));
    }
    return *replica;
  };
  std::vector<std::uint64_t> slot_reset_ns(workers, 0);
  std::vector<sim::PathSnapshot> slot_scratch(workers);

  const auto execute = [&](const Unit& unit, std::size_t u,
                           std::uint32_t slot) {
    sim::Gpu& replica = slot_replica(slot);
    {
      const obs::SpanGuard reset_span("replica.reset");
      const std::uint64_t reset_start = obs::monotonic_ns();
      replica.flush_caches();
      if (!unit.chunk) {
        // The memo key IS the noise-stream seed (both are the full spec
        // fold).
        replica.reseed_noise(plan.seeds[unit.indices.front()]);
      }
      const std::uint64_t reset_ns = obs::monotonic_ns() - reset_start;
      slot_reset_ns[slot] += reset_ns;
      if (obs::metrics_enabled()) {
        obs::Metrics::instance().observe("replica.reset_ns",
                                         static_cast<double>(reset_ns));
      }
    }
    const ScopedPChaseEngine scope(engine);  // workers default to kCompiled
    if (!unit.chunk) {
      const std::size_t index = unit.indices.front();
      const obs::SpanGuard chase(chase_span);
      plan.results[index] = run_chase(replica, plan.specs[index]);
      return;
    }
    // Warm-sharing chunk: one incremental warm walk, many timed passes.
    const PChaseConfig& head = plan.specs[unit.indices.front()].config;
    const sim::AccessPath path =
        replica.compile_path(head.where, head.space, head.flags);
    std::uint64_t cur_steps = 0;
    std::uint64_t cum_warm = 0;
    if (unit.restore != nullptr) {
      replica.restore_path(path, unit.restore->state);
      cur_steps = unit.restore->steps;
      cum_warm = unit.restore->cum_warm_cycles;
    }
    for (std::size_t i = 0; i < unit.indices.size(); ++i) {
      const std::size_t index = unit.indices[i];
      const PChaseConfig& config = plan.specs[index].config;
      const std::uint64_t steps = walk_steps(config);
      if (steps > cur_steps) {
        cum_warm += replica.run_warm_pass(
            path, config.base + cur_steps * config.stride_bytes,
            config.stride_bytes, steps - cur_steps);
        cur_steps = steps;
      }
      const bool last = i + 1 == unit.indices.size();
      if (last && unit.save) {
        WarmStateEntry& saved = plan.saved[u].emplace();
        saved.steps = cur_steps;
        saved.cum_warm_cycles = cum_warm;
        replica.snapshot_path(path, saved.state);
      }
      // Re-seeding here puts the timed pass at the exact stream position a
      // cold run would see: warm-up consumes zero draws.
      replica.reseed_noise(plan.seeds[index]);
      PChaseConfig timed = config;
      timed.warmup = false;
      const obs::SpanGuard chase(chase_span);
      PChaseResult& result = plan.results[index];
      if (!last) {
        // The timed pass only touches sets its address prefix maps to;
        // snapshotting exactly those makes the restore rewind it fully.
        replica.snapshot_path_prefix(path, config.base, config.stride_bytes,
                                     timed_steps_of(config),
                                     slot_scratch[slot]);
        result = run_pchase(replica, timed);
        replica.restore_path(path, slot_scratch[slot]);
      } else {
        result = run_pchase(replica, timed);
      }
      // The member's walk from cold, however much of it this unit ran.
      result.warm_cycles = cum_warm;
      result.total_cycles += cum_warm;
    }
  };

  std::atomic<std::size_t> needed_left{std::min(needed, units.size())};
  const auto run_unit = [&](std::size_t u, std::uint32_t slot) {
    if (u >= needed && needed_left.load() == 0) {
      return;  // too late to run beside a needed unit
    }
    execute(units[u], u, slot);
    plan.ran[u] = 1;
    if (u < needed) needed_left.fetch_sub(1);
  };
  if (workers == 1) {
    for (std::size_t u = 0; u < units.size(); ++u) run_unit(u, 0);
  } else {
    batch_executor(options, &pool).parallel_for(units.size(), workers,
                                                run_unit);
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

std::uint32_t batch_participants(const ChaseBatchOptions& options) {
  if (options.threads <= 1) return 1;
  return std::min(options.threads,
                  batch_executor(options, options.pool).pool_threads() + 1);
}

void discard_chase_ahead(ReplicaPool& pool) {
  drop_ahead(pool, pool.ahead.begin());
}

void run_chase_ahead(sim::Gpu& gpu, std::span<const ChaseSpec> specs,
                     const ChaseBatchOptions& options) {
  if (specs.empty() || options.pool == nullptr) return;
  ReplicaPool& pool = *options.pool;
  sync_epoch(pool, gpu);
  Plan plan(specs);
  std::vector<std::size_t> todo;  // specs to run, first occurrences
  for (std::size_t i = 0; i < specs.size(); ++i) {
    plan.seeds[i] = chase_noise_seed(gpu.seed(), specs[i]);
    const bool answerable =
        (options.memoize && probe_memo(pool, plan.seeds[i], specs[i])) ||
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

  const bool compiled = pchase_engine() == PChaseEngine::kCompiled;
  for (const std::size_t i : todo) {
    Unit unit;
    unit.indices.push_back(i);
    if (compiled && warm_shareable(specs[i])) {
      unit.chunk = true;
      unit.save = true;
      unit.restore = resume_point(pool, warm_key_of(specs[i].config),
                                  walk_steps(specs[i].config));
    }
    plan.units.push_back(std::move(unit));
  }
  run_units(gpu, pool, options, plan, /*needed=*/1, "chase.ahead");

  for (std::size_t u = 0; u < plan.units.size(); ++u) {
    if (!plan.ran[u]) continue;
    const std::size_t i = plan.units[u].indices.front();
    pool.ahead.push_back({specs[i], std::move(plan.results[i]),
                          std::move(plan.saved[u])});
    ++pool.ahead_stats.ran;
  }
}

std::vector<PChaseResult> run_chase_batch(sim::Gpu& gpu,
                                          std::span<const ChaseSpec> specs,
                                          const ChaseBatchOptions& options) {
  if (specs.empty()) return {};
  const obs::SpanGuard batch_span("chase.batch");

  ReplicaPool local_pool;
  ReplicaPool& pool = options.pool ? *options.pool : local_pool;
  sync_epoch(pool, gpu);
  Plan plan(specs);
  std::vector<PChaseResult>& results = plan.results;

  // Resolve memo hits, intra-batch duplicates and run-ahead commits in spec
  // order, before any chase runs, so which index counts as the run (and
  // which as a replay) is a function of the batch contents alone.
  std::vector<std::size_t> pending;  // first occurrences: run or committed
  std::vector<std::ptrdiff_t> copy_from(specs.size(), -1);
  // hash -> indices already pending, so duplicate detection stays linear
  // even for the N^2-pair CU-sharing batches.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> first_seen;
  // Committed run-ahead results: spec index -> end of its warm walk.
  std::map<std::size_t, std::optional<WarmStateEntry>> committed;
  const std::uint64_t memo_hits_before = pool.memo_stats.hits;
  {
    const obs::SpanGuard memo_span("memo.resolve");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::uint64_t hash = chase_noise_seed(gpu.seed(), specs[i]);
      plan.seeds[i] = hash;
      if (options.memoize) {
        if (const PChaseResult* hit = probe_memo(pool, hash, specs[i])) {
          results[i] = *hit;
          results[i].from_cache = true;
          ++pool.memo_stats.hits;
          continue;
        }
        auto& candidates = first_seen[hash];
        const auto earlier = std::find_if(
            candidates.begin(), candidates.end(),
            [&](std::size_t j) { return specs[j] == specs[i]; });
        if (earlier != candidates.end()) {
          copy_from[i] = static_cast<std::ptrdiff_t>(*earlier);
          continue;
        }
        candidates.push_back(i);
      }
      if (!pool.ahead.empty()) {
        const auto waiting = find_ahead(pool, specs[i]);
        if (waiting != pool.ahead.end()) {
          results[i] = std::move(waiting->result);
          committed.emplace(i, std::move(waiting->warm));
          pool.ahead.erase(waiting);
        }
      }
      pending.push_back(i);
    }
  }

  if (!pending.empty()) {
    // ---- Warm chains (compiled engine) --------------------------------------
    // Group warm-compatible plain chases by WarmKey and sort each chain by
    // walk length (ties stay in spec order). Committed run-ahead results
    // are chain members too: they run in no unit, but a longest member's
    // end state still enters the ledger.
    struct Member {
      std::size_t index = 0;  ///< spec index
      std::uint64_t steps = 0;
    };
    struct Chain {
      std::vector<Member> members;
      std::size_t save_unit = SIZE_MAX;  ///< unit that captures the end state
    };
    std::map<WarmKey, Chain> chains;
    std::vector<Unit>& units = plan.units;
    std::vector<char> in_chunk(specs.size(), 0);
    if (pchase_engine() == PChaseEngine::kCompiled) {
      for (const std::size_t i : pending) {
        if (!warm_shareable(specs[i])) continue;
        chains[warm_key_of(specs[i].config)].members.push_back(
            {i, walk_steps(specs[i].config)});
      }
      // Splitting chains into chunks is what lets a single monolithic sweep
      // fan out across --sweep-threads; each chunk re-warms independently
      // (from the best ledger snapshot), trading some redundant warm work
      // for parallelism without touching results.
      for (auto& [key, chain] : chains) {
        std::stable_sort(
            chain.members.begin(), chain.members.end(),
            [](const Member& a, const Member& b) { return a.steps < b.steps; });
        const std::size_t first_unit = units.size();
        Unit current;
        current.chunk = true;
        for (const Member& m : chain.members) {
          if (committed.count(m.index)) continue;
          current.indices.push_back(m.index);
          in_chunk[m.index] = 1;
          const bool bounded =
              timed_steps_of(specs[m.index].config) <= kPrefixShareCap;
          // An unbounded (full-pass) timed run dirties state beyond any
          // cheap snapshot, so it closes its chunk as the final member.
          if (!bounded ||
              current.indices.size() >= ReplicaPool::warm_chunk_points) {
            units.push_back(std::move(current));
            current = Unit{};
            current.chunk = true;
          }
        }
        if (!current.indices.empty()) units.push_back(std::move(current));
        // Resume points: the longest ledger walk not exceeding the chunk's
        // first member. Ledger entries are immutable during execution (the
        // update below happens after the join), so the pointers stay valid.
        for (std::size_t u = first_unit; u < units.size(); ++u) {
          units[u].restore = resume_point(
              pool, key, walk_steps(specs[units[u].indices.front()].config));
        }
        // The last unit reaches the chain's longest walk — unless a
        // committed result does, which brings its own end state: capture
        // the state there so the next batch can resume instead of
        // re-warming.
        if (units.size() > first_unit &&
            !committed.count(chain.members.back().index)) {
          units.back().save = true;
          chain.save_unit = units.size() - 1;
        }
      }
    }
    // Everything else (non-chain shapes, resamples, the reference engine)
    // runs as a cold singleton.
    for (const std::size_t i : pending) {
      if (in_chunk[i] || committed.count(i)) continue;
      Unit unit;
      unit.indices.push_back(i);
      units.push_back(std::move(unit));
    }
    run_units(gpu, pool, options, plan, /*needed=*/units.size(), "chase.run");

    // Each chain's longest walk enters the ledger, in chain order.
    for (auto& [key, chain] : chains) {
      std::optional<WarmStateEntry>* end_state = nullptr;
      if (const auto end = committed.find(chain.members.back().index);
          end != committed.end()) {
        end_state = &end->second;
      } else if (chain.save_unit != SIZE_MAX) {
        end_state = &plan.saved[chain.save_unit];
      }
      if (end_state != nullptr && *end_state) {
        insert_ledger_entry(pool, key, std::move(**end_state));
      }
    }

    if (options.memoize) {
      pool.memo_stats.misses += pending.size();
      for (const std::size_t i : pending) {
        pool.memo[plan.seeds[i]].emplace_back(specs[i], results[i]);
      }
    }
  }

  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (copy_from[i] < 0) continue;
    results[i] = results[static_cast<std::size_t>(copy_from[i])];
    results[i].from_cache = true;
    ++pool.memo_stats.hits;
  }
  pool.ahead_stats.used += committed.size();
  if (obs::metrics_enabled()) {
    obs::Metrics& metrics = obs::Metrics::instance();
    const std::uint64_t hits = pool.memo_stats.hits - memo_hits_before;
    if (hits > 0) metrics.add("memo.hits", static_cast<double>(hits));
    if (options.memoize && !pending.empty()) {
      metrics.add("memo.misses", static_cast<double>(pending.size()));
    }
    if (!committed.empty()) {
      metrics.add("chase.ahead_used", static_cast<double>(committed.size()));
    }
  }
  return std::move(plan.results);
}

std::vector<PChaseResult> run_pchase_batch(sim::Gpu& gpu,
                                           std::span<const PChaseConfig> configs,
                                           const ChaseBatchOptions& options) {
  std::vector<ChaseSpec> specs;
  specs.reserve(configs.size());
  for (const PChaseConfig& config : configs) {
    specs.push_back(ChaseSpec::plain(config));
  }
  return run_chase_batch(gpu, specs, options);
}

}  // namespace mt4g::runtime
