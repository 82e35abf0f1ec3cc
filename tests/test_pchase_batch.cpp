// Batch p-chase tests: the determinism contract of the parallel sweep
// engine. A batched chase must be a pure function of (gpu seed, config) —
// independent of thread count, execution order, replica reuse and whatever
// ran on the owning Gpu before — and the batch must never disturb the
// owning Gpu's own noise stream or cache state.
#include "runtime/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/units.hpp"
#include "core/target.hpp"
#include "exec/executor.hpp"
#include "sim/registry.hpp"

namespace mt4g::runtime {
namespace {

using sim::Element;

std::vector<PChaseConfig> sweep_configs(sim::Gpu& gpu, std::size_t count) {
  const std::uint64_t base = gpu.alloc(64 * KiB, 256);
  std::vector<PChaseConfig> configs;
  for (std::size_t i = 0; i < count; ++i) {
    PChaseConfig config;
    config.base = base;
    config.array_bytes = 2 * KiB + i * 512;
    config.stride_bytes = 32;
    config.record_count = 128;
    configs.push_back(config);
  }
  return configs;
}

bool equal_results(const std::vector<PChaseResult>& a,
                   const std::vector<PChaseResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].latencies != b[i].latencies ||
        a[i].timed_loads != b[i].timed_loads ||
        a[i].total_cycles != b[i].total_cycles ||
        a[i].warm_cycles != b[i].warm_cycles ||
        a[i].served_by.raw() != b[i].served_by.raw()) {
      return false;
    }
  }
  return true;
}

std::vector<ChaseSpec> plain_specs(std::span<const PChaseConfig> configs) {
  std::vector<ChaseSpec> specs;
  for (const PChaseConfig& config : configs) {
    specs.push_back(ChaseSpec::plain(config));
  }
  return specs;
}

/// A pool whose batches run on @p threads participants of @p executor.
ReplicaPool parallel_pool(std::uint32_t threads, exec::Executor& executor) {
  ReplicaPool pool;
  pool.threads = threads;
  pool.executor = &executor;
  return pool;
}

/// What the cost rule promises for every batch result: an isolated cold run
/// of its spec on the per-load reference engine, one batch per spec.
std::vector<PChaseResult> cold_reference(sim::Gpu& gpu,
                                         std::span<const ChaseSpec> specs) {
  const ScopedPChaseEngine scope(PChaseEngine::kReference);
  std::vector<PChaseResult> results;
  for (const ChaseSpec& spec : specs) {
    results.push_back(run_chase_batch(gpu, std::span(&spec, 1))[0]);
  }
  return results;
}

std::vector<PChaseResult> cold_reference(
    sim::Gpu& gpu, std::span<const PChaseConfig> configs) {
  return cold_reference(gpu, plain_specs(configs));
}

TEST(PChaseBatch, ByteIdenticalAcrossThreadCounts) {
  exec::Executor pool(3);  // real pool threads even on a single-core host
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = plain_specs(sweep_configs(gpu, 24));

  const auto reference = run_chase_batch(gpu, specs);

  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    ReplicaPool fresh = parallel_pool(threads, pool);
    const auto parallel = run_chase_batch(gpu, specs, &fresh);
    EXPECT_TRUE(equal_results(reference, parallel))
        << threads << " threads diverged from the serial reference";
  }
}

TEST(PChaseBatch, ResultIndependentOfBatchCompositionAndHistory) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 7);
  const auto specs = plain_specs(sweep_configs(gpu, 8));
  const auto cold = cold_reference(gpu, specs);

  // Chase 3 as a warm-chain member of the full batch, alone, and on a pool
  // an earlier batch used: the same measurement and the same cycles, those
  // of a cold run of its spec.
  const auto full = run_chase_batch(gpu, specs);
  EXPECT_TRUE(equal_results(full, cold));
  const auto alone = run_chase_batch(gpu, std::span(specs).subspan(3, 1));
  EXPECT_TRUE(equal_results(alone, {cold[3]}));

  ReplicaPool pool;
  (void)run_chase_batch(gpu, std::span(specs).subspan(0, 2), &pool);
  const auto reused =
      run_chase_batch(gpu, std::span(specs).subspan(3, 1), &pool);
  EXPECT_TRUE(equal_results(reused, {cold[3]}));
}

TEST(PChaseBatch, DoesNotDisturbTheOwningGpu) {
  sim::Gpu a(sim::registry_get("TestGPU-NV"), 42);
  sim::Gpu b(sim::registry_get("TestGPU-NV"), 42);
  const auto configs_a = sweep_configs(a, 6);
  (void)sweep_configs(b, 6);  // keep the allocator state identical

  // Run a batch on `a` only, then the same serial chase on both: if the
  // batch had consumed `a`'s noise stream or warmed its caches, the
  // measurements would diverge.
  (void)run_chase_batch(a, plain_specs(configs_a));
  PChaseConfig probe;
  probe.base = a.alloc(4 * KiB, 256);
  probe.array_bytes = 2 * KiB;
  probe.stride_bytes = 32;
  probe.record_count = 64;
  PChaseConfig probe_b = probe;
  probe_b.base = b.alloc(4 * KiB, 256);
  ASSERT_EQ(probe.base, probe_b.base);
  EXPECT_EQ(run_pchase(a, probe).latencies, run_pchase(b, probe_b).latencies);
}

TEST(PChaseBatch, ChaseSeedSeparatesConfigsButIsStable) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto configs = sweep_configs(gpu, 2);
  EXPECT_EQ(chase_noise_seed(42, configs[0]), chase_noise_seed(42, configs[0]));
  EXPECT_NE(chase_noise_seed(42, configs[0]), chase_noise_seed(42, configs[1]));
  EXPECT_NE(chase_noise_seed(42, configs[0]), chase_noise_seed(43, configs[0]));
}

TEST(PChaseBatch, ForkCarriesSpecMutationsAndAllocator) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const std::uint64_t base = gpu.alloc(1 * KiB, 256);
  gpu.set_l2_fetch_granularity(64);
  sim::Gpu replica = gpu.fork(99);
  EXPECT_EQ(replica.l2_fetch_granularity(), 64u);
  EXPECT_EQ(replica.seed(), 99u);
  // Allocator state carried over: the next address is past `base`.
  EXPECT_GT(replica.alloc(64, 256), base);
}

TEST(PChaseBatch, StaleReplicaPoolIsRefreshedAfterCacheRebuild) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = plain_specs(sweep_configs(gpu, 4));
  ReplicaPool pool;
  (void)run_chase_batch(gpu, specs, &pool);
  ASSERT_FALSE(pool.replicas.empty());
  ASSERT_TRUE(pool.replicas[0].has_value());
  EXPECT_EQ(pool.replicas[0]->l2_fetch_granularity(),
            gpu.l2_fetch_granularity());

  gpu.set_l2_fetch_granularity(64);
  (void)run_chase_batch(gpu, specs, &pool);
  ASSERT_TRUE(pool.replicas[0].has_value());
  EXPECT_EQ(pool.replicas[0]->l2_fetch_granularity(), 64u);
}

TEST(PChaseBatch, ReplicasAreAcquiredPerWorkingSlot) {
  // 100 cold chases are 100 units, and threads = 8 allows eight
  // participants. A pool-less executor runs every unit on the caller's
  // slot, so that slot is the only one that may hold a replica.
  exec::Executor inline_only(0);
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  auto configs = sweep_configs(gpu, 100);
  for (PChaseConfig& config : configs) config.warmup = false;

  ReplicaPool pool = parallel_pool(8, inline_only);
  const auto specs = plain_specs(configs);
  const auto results = run_chase_batch(gpu, specs, &pool);
  EXPECT_EQ(std::count_if(pool.replicas.begin(), pool.replicas.end(),
                          [](const auto& replica) { return replica.has_value(); }),
            1);

  EXPECT_TRUE(equal_results(run_chase_batch(gpu, specs), results));
}

std::vector<ChaseSpec> multi_phase_specs(sim::Gpu& gpu) {
  // One spec of every multi-phase shape, plus plain chases, in one batch —
  // the mix the amount/sharing benchmarks produce.
  std::vector<ChaseSpec> specs;
  const std::uint64_t base_a = gpu.alloc(8 * KiB, 256);
  const std::uint64_t base_b = gpu.alloc(8 * KiB, 256);

  PChaseConfig amount_config;
  amount_config.base = base_a;
  amount_config.array_bytes = 3584;  // 7/8 of the 4 KiB L1
  amount_config.stride_bytes = 32;
  amount_config.record_count = 128;
  for (const std::uint32_t core_b : {1u, 2u, 4u, 8u}) {
    specs.push_back(ChaseSpec::amount(amount_config, core_b, base_b));
  }

  PChaseConfig sharing_a = amount_config;
  sharing_a.array_bytes = 896;  // 7/8 of the 1 KiB constant L1
  sharing_a.space = sim::Space::kConstant;
  PChaseConfig sharing_b = amount_config;
  specs.push_back(ChaseSpec::sharing(sharing_a, sharing_b));

  PChaseConfig plain = amount_config;
  plain.array_bytes = 2 * KiB;
  specs.push_back(ChaseSpec::plain(plain));
  return specs;
}

TEST(PChaseBatch, MultiPhaseSpecsByteIdenticalAcrossThreadCounts) {
  exec::Executor pool(7);  // real pool threads even on a single-core host
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = multi_phase_specs(gpu);

  const auto reference = run_chase_batch(gpu, specs);

  for (const std::uint32_t threads : {4u, 8u}) {
    ReplicaPool fresh = parallel_pool(threads, pool);
    const auto parallel = run_chase_batch(gpu, specs, &fresh);
    EXPECT_TRUE(equal_results(reference, parallel))
        << threads << " threads diverged from the serial reference";
  }
}

TEST(PChaseBatch, DualCuSpecsByteIdenticalAcrossThreadCounts) {
  exec::Executor pool(7);
  sim::Gpu gpu(sim::registry_get("TestGPU-AMD"), 42);
  PChaseConfig config;
  config.space = sim::Space::kScalar;
  config.array_bytes = 896;  // 7/8 of the 1 KiB sL1d
  config.stride_bytes = 64;
  config.record_count = 64;
  config.base = gpu.alloc(1 * KiB, 256);
  const std::uint64_t base_b = gpu.alloc(1 * KiB, 256);
  std::vector<ChaseSpec> specs;
  for (std::uint32_t cu_a = 0; cu_a < 4; ++cu_a) {
    for (std::uint32_t cu_b = cu_a + 1; cu_b < 8; ++cu_b) {
      config.where = sim::Placement{cu_a, 0};
      specs.push_back(ChaseSpec::dual_cu(config, cu_b, base_b));
    }
  }

  const auto reference = run_chase_batch(gpu, specs);
  for (const std::uint32_t threads : {4u, 8u}) {
    ReplicaPool fresh = parallel_pool(threads, pool);
    const auto parallel = run_chase_batch(gpu, specs, &fresh);
    EXPECT_TRUE(equal_results(reference, parallel))
        << threads << " threads diverged from the serial reference";
  }
}

TEST(PChaseBatch, ARepeatedBatchRunsAgain) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = multi_phase_specs(gpu);
  ReplicaPool pool;

  const auto first = run_chase_batch(gpu, specs, &pool);
  EXPECT_EQ(pool.chases, specs.size());

  // The identical batch again: every spec runs again, as the real tool's
  // re-run does, and measures and costs what it did the first time.
  const auto second = run_chase_batch(gpu, specs, &pool);
  EXPECT_EQ(pool.chases, 2 * specs.size());
  const auto cold = cold_reference(gpu, specs);
  EXPECT_TRUE(equal_results(first, cold));
  EXPECT_TRUE(equal_results(second, cold));
}

TEST(PChaseBatch, DuplicatesRunAndAgree) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  auto specs = sweep_configs(gpu, 3);
  std::vector<ChaseSpec> batch;
  for (const auto& config : specs) batch.push_back(ChaseSpec::plain(config));
  batch.push_back(ChaseSpec::plain(specs[1]));  // duplicate of index 1

  ReplicaPool pool;
  const auto results = run_chase_batch(gpu, batch, &pool);
  EXPECT_EQ(pool.chases, 4u);
  // Both copies of index 1 run cold and alone: the same measurement and the
  // same cycles.
  const auto cold = cold_reference(gpu, batch);
  EXPECT_TRUE(equal_results(results, cold));
  EXPECT_TRUE(equal_results({results[1]}, {cold[1]}));
  EXPECT_TRUE(equal_results({results[3]}, {cold[1]}));
}

TEST(PChaseBatch, ResampleIndexYieldsAFreshMeasurement) {
  // Identical configs share a stream; bumping resample moves the chase to a
  // statistically independent stream (the sweep's spike re-measurement).
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  auto configs = sweep_configs(gpu, 1);
  PChaseConfig resampled = configs[0];
  resampled.resample = 1;
  std::vector<ChaseSpec> batch = {ChaseSpec::plain(configs[0]),
                                  ChaseSpec::plain(resampled)};
  ReplicaPool pool;
  const auto results = run_chase_batch(gpu, batch, &pool);
  EXPECT_EQ(pool.chases, 2u);
  EXPECT_NE(results[0].latencies, results[1].latencies);
  EXPECT_EQ(results[0].timed_loads, results[1].timed_loads);
}

TEST(PChaseBatch, TimedStepCapDoesNotChangeTheRecordedPrefix) {
  // max_timed_steps is excluded from the noise seed: the capped chase's
  // recorded latencies must equal the uncapped chase's prefix exactly.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  PChaseConfig full;
  full.base = gpu.alloc(16 * KiB, 256);
  full.array_bytes = 16 * KiB;
  full.stride_bytes = 32;
  full.record_count = 64;
  PChaseConfig capped = full;
  capped.max_timed_steps = 64;
  std::vector<ChaseSpec> batch = {ChaseSpec::plain(full),
                                  ChaseSpec::plain(capped)};
  const auto results = run_chase_batch(gpu, batch);
  EXPECT_EQ(results[0].latencies, results[1].latencies);
  EXPECT_EQ(results[0].timed_loads, 512u);  // 16 KiB / 32 B
  EXPECT_EQ(results[1].timed_loads, 64u);
  // The cycles still cover the whole pass: the 448 loads the cap skipped
  // are charged at the mean latency of the 64 it ran, in both engines.
  std::uint64_t executed = 0;
  for (const std::uint32_t latency : results[1].latencies) executed += latency;
  EXPECT_EQ(results[1].warm_cycles, results[0].warm_cycles);
  EXPECT_EQ(results[1].total_cycles - results[1].warm_cycles, executed * 8);
  EXPECT_TRUE(equal_results(results, cold_reference(gpu, batch)));
}

TEST(PChaseBatch, RunAheadCommitsExactlyLikeExecution) {
  // A bisection-like chain of single-spec batches, once executed in place
  // and once committed from run-ahead rounds (each call names the results
  // of its round still waiting, so the table holds all of them). Commits
  // must count exactly like execution, and carry the cycles of a cold run.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto configs = sweep_configs(gpu, 7);  // full timed passes
  const std::vector<std::size_t> order = {3, 1, 5, 0, 4, 2};
  ReplicaPool serial_pool;
  ReplicaPool ahead_pool;
  const auto spec = [&](std::size_t i) { return ChaseSpec::plain(configs[i]); };
  const auto commit = [&](std::size_t i) {
    const ChaseSpec one = spec(i);
    return run_chase_batch(gpu, std::span(&one, 1), &ahead_pool)[0];
  };
  const auto ahead = [&](std::initializer_list<std::size_t> round) {
    std::vector<ChaseSpec> specs;
    for (const std::size_t i : round) specs.push_back(spec(i));
    run_chase_ahead(gpu, specs, ahead_pool);
  };

  std::vector<PChaseResult> serial;
  for (const std::size_t i : order) {
    const ChaseSpec one = spec(i);
    serial.push_back(run_chase_batch(gpu, std::span(&one, 1),
                                     &serial_pool)[0]);
  }
  std::vector<PChaseResult> committed;
  ahead({3});
  ahead({1, 3});
  ASSERT_EQ(ahead_pool.ahead.size(), 2u);
  committed.push_back(commit(3));
  committed.push_back(commit(1));
  ahead({5});
  ahead({0, 5});
  ahead({4, 0, 5});
  committed.push_back(commit(5));
  committed.push_back(commit(0));
  committed.push_back(commit(4));
  ahead({2});
  ahead({6, 2});  // a probe the chain never needs
  committed.push_back(commit(2));
  discard_chase_ahead(ahead_pool);

  EXPECT_TRUE(equal_results(serial, committed));
  for (std::size_t k = 0; k < serial.size(); ++k) {
    const std::vector<ChaseSpec> one = {spec(order[k])};
    EXPECT_TRUE(equal_results({committed[k]}, cold_reference(gpu, one)))
        << k;
  }
  EXPECT_EQ(serial_pool.chases, ahead_pool.chases);
  EXPECT_EQ(ahead_pool.ahead_stats.ran, 7u);
  EXPECT_EQ(ahead_pool.ahead_stats.used, 6u);
  EXPECT_EQ(ahead_pool.ahead_stats.discarded, 1u);
  EXPECT_TRUE(ahead_pool.ahead.empty());
}

TEST(PChaseBatch, RunAheadIsNeverCommittedAcrossAPathEpochChange) {
  // A full pass at half-line stride over twice an L2 segment: every line
  // misses, and whether its second half hits depends on the L2 fetch
  // granularity — so a stale measurement would show.
  const sim::GpuSpec& spec = sim::registry_get("TestGPU-NV");
  const core::Target l2 = core::target_for(spec.vendor, Element::kL2);
  sim::Gpu gpu(spec, 42);
  PChaseConfig config;
  config.space = l2.space;
  config.flags = l2.flags;
  config.base = gpu.alloc(64 * KiB, 256);
  config.array_bytes = 64 * KiB;
  config.stride_bytes = 32;
  config.record_count = 128;
  const ChaseSpec chase = ChaseSpec::plain(config);
  ReplicaPool pool;
  run_chase_ahead(gpu, std::span(&chase, 1), pool);
  ASSERT_EQ(pool.ahead.size(), 1u);
  const PChaseResult stale = pool.ahead.front().result;

  gpu.set_l2_fetch_granularity(64);  // rebuilds the L2: a new path epoch
  const auto committed = run_chase_batch(gpu, std::span(&chase, 1), &pool);
  EXPECT_EQ(pool.ahead_stats.used, 0u);
  EXPECT_EQ(pool.ahead_stats.discarded, 1u);
  EXPECT_TRUE(pool.ahead.empty());
  EXPECT_EQ(pool.chases, 1u);

  // The probe executed again, on the rebuilt L2.
  sim::Gpu fresh(spec, 42);
  (void)fresh.alloc(64 * KiB, 256);
  fresh.set_l2_fetch_granularity(64);
  const auto reference = run_chase_batch(fresh, std::span(&chase, 1));
  EXPECT_TRUE(equal_results(committed, reference));
  EXPECT_NE(stale.served_by.raw(), reference[0].served_by.raw());
}

TEST(PChaseBatch, PropagatesTheCallersEngineToWorkers) {
  exec::Executor pool(3);
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = plain_specs(sweep_configs(gpu, 12));

  ReplicaPool compiled_pool = parallel_pool(4, pool);
  const auto compiled = run_chase_batch(gpu, specs, &compiled_pool);
  std::vector<PChaseResult> reference;
  {
    const ScopedPChaseEngine scope(PChaseEngine::kReference);
    ReplicaPool reference_pool = parallel_pool(4, pool);
    reference = run_chase_batch(gpu, specs, &reference_pool);
  }
  // The engines are byte-equivalent by contract, so identical results here
  // mean the reference engine actually ran on the workers (a worker that
  // silently fell back to its thread-local default would still pass); the
  // real assertion is that nothing crashed and nothing diverged.
  EXPECT_TRUE(equal_results(compiled, reference));
}

}  // namespace
}  // namespace mt4g::runtime
