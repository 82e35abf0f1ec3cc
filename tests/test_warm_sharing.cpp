// Warm-up state sharing tests: the correctness contract of the chain/chunk
// execution in runtime/batch.cpp. A warm-shared timed pass (snapshot +
// incremental warm + restore) must record byte-identical measurements to a
// cold full chase for every chase shape, for every sweep thread count, for
// chains longer than one sub-sweep chunk, with the snapshot budget at zero,
// and across batches through the pool's warm-state ledger. Cycles follow
// the one cost rule: every member books its whole warm walk and timed pass
// as a cold run of its spec would, so the reference engine running each
// spec alone books identical cycles. Resampled chases must never join a
// chain: they exist to draw fresh noise.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "exec/executor.hpp"
#include "runtime/batch.hpp"
#include "runtime/kernels.hpp"
#include "sim/registry.hpp"

namespace mt4g::runtime {
namespace {

// Chases per chain in chain_specs: three sub-sweep chunks, the last one
// partial, so every chain crosses two chunk boundaries.
constexpr std::size_t kChainLength = 2 * ReplicaPool::warm_chunk_points + 4;

// A warm chain the size benchmark would produce: many plain chases on one
// base/stride (shared WarmKey) with growing array sizes, plus a second
// stride (a second chain) and bounded timed passes of differing caps.
std::vector<ChaseSpec> chain_specs(sim::Gpu& gpu) {
  const std::uint64_t base = gpu.alloc(64 * KiB, 256);
  std::vector<ChaseSpec> specs;
  for (const std::uint32_t stride : {32u, 64u}) {
    for (std::size_t i = 0; i < kChainLength; ++i) {
      PChaseConfig config;
      config.base = base;
      config.array_bytes = 2 * KiB + i * 768;
      config.stride_bytes = stride;
      config.record_count = 128;
      config.max_timed_steps = i % 3 == 0 ? 0 : 64 + 32 * (i % 4);
      specs.push_back(ChaseSpec::plain(config));
    }
  }
  return specs;
}

// The full shape mix of the benchmark suite in one batch: chains of plain
// chases next to amount/sharing specs (which never join a chain).
std::vector<ChaseSpec> mixed_specs(sim::Gpu& gpu) {
  std::vector<ChaseSpec> specs = chain_specs(gpu);
  const std::uint64_t base_a = gpu.alloc(8 * KiB, 256);
  const std::uint64_t base_b = gpu.alloc(8 * KiB, 256);

  PChaseConfig amount_config;
  amount_config.base = base_a;
  amount_config.array_bytes = 3584;  // 7/8 of the 4 KiB L1
  amount_config.stride_bytes = 32;
  amount_config.record_count = 128;
  specs.push_back(ChaseSpec::amount(amount_config, 2, base_b));

  PChaseConfig sharing_a = amount_config;
  sharing_a.array_bytes = 896;  // 7/8 of the 1 KiB constant L1
  sharing_a.space = sim::Space::kConstant;
  specs.push_back(ChaseSpec::sharing(sharing_a, amount_config));
  return specs;
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

// The cold truth: the reference engine runs every chase as an isolated cold
// singleton — no snapshots, no incremental warm-up, no memo — and every
// batch result must carry exactly its cycles too.
std::vector<PChaseResult> cold_reference(sim::Gpu& gpu,
                                         const std::vector<ChaseSpec>& specs) {
  ScopedPChaseEngine scope(PChaseEngine::kReference);
  ChaseBatchOptions options;
  options.memoize = false;
  return run_chase_batch(gpu, specs, options);
}

TEST(WarmSharing, SharedTimedPassMatchesColdChaseForEveryShape) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = mixed_specs(gpu);
  const auto cold = cold_reference(gpu, specs);

  exec::Executor executor(7);  // real pool threads on any host
  for (const std::uint32_t threads : {1u, 3u, 8u}) {
    ChaseBatchOptions options;
    options.threads = threads;
    options.executor = &executor;
    ReplicaPool pool;
    options.pool = &pool;
    const auto shared = run_chase_batch(gpu, specs, options);
    EXPECT_TRUE(equal_results(cold, shared))
        << "threads=" << threads << " diverged from the cold reference";
  }
}

TEST(WarmSharing, DualCuBatchesMatchTheColdReference) {
  // The fourth chase shape lives on the AMD model: CU pairs probing the
  // shared sL1d. Dual-CU chases never join a chain, but they ride in the
  // same batches as chained plain chases and must stay cold-identical.
  sim::Gpu gpu(sim::registry_get("TestGPU-AMD"), 42);
  PChaseConfig config;
  config.space = sim::Space::kScalar;
  config.array_bytes = 896;  // 7/8 of the 1 KiB sL1d
  config.stride_bytes = 64;
  config.record_count = 64;
  config.base = gpu.alloc(1 * KiB, 256);
  const std::uint64_t base_b = gpu.alloc(1 * KiB, 256);
  std::vector<ChaseSpec> specs;
  for (std::uint32_t cu_b = 1; cu_b < 6; ++cu_b) {
    specs.push_back(ChaseSpec::dual_cu(config, cu_b, base_b));
  }
  for (std::size_t i = 0; i < 6; ++i) {
    PChaseConfig plain = config;
    plain.array_bytes = 512 + 64 * i;
    specs.push_back(ChaseSpec::plain(plain));
  }
  const auto cold = cold_reference(gpu, specs);

  exec::Executor executor(7);
  for (const std::uint32_t threads : {1u, 8u}) {
    ChaseBatchOptions options;
    options.threads = threads;
    options.executor = &executor;
    ReplicaPool pool;
    options.pool = &pool;
    EXPECT_TRUE(equal_results(cold, run_chase_batch(gpu, specs, options)))
        << "threads=" << threads << " diverged from the cold reference";
  }
}

TEST(WarmSharing, SnapshotBudgetZeroStillMatchesCold) {
  // With no snapshot budget the ledger keeps nothing: every chunk re-warms
  // from scratch, and neither measurements nor cycles may move.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = chain_specs(gpu);
  const auto cold = cold_reference(gpu, specs);

  ChaseBatchOptions options;
  ReplicaPool pool;
  pool.warm_state_budget = 0;
  options.pool = &pool;
  EXPECT_TRUE(equal_results(cold, run_chase_batch(gpu, specs, options)));
  EXPECT_EQ(pool.warm_state_bytes, 0u);
  EXPECT_TRUE(pool.warm_ledger.empty());
}

TEST(WarmSharing, LedgerResumesAcrossBatchesWithoutChangingResults) {
  // Batch A leaves the short walks of each WarmKey in the pool's ledger;
  // batch B extends the same keys to longer walks and resumes from there.
  // Resuming must move neither a measurement nor a cycle: batch B books
  // exactly what a fresh pool and the cold reference book.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = chain_specs(gpu);
  std::vector<ChaseSpec> first;
  std::vector<ChaseSpec> second;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    (i % kChainLength < kChainLength / 2 ? first : second).push_back(specs[i]);
  }

  ChaseBatchOptions fresh;
  ReplicaPool fresh_pool;
  fresh.pool = &fresh_pool;
  const auto alone = run_chase_batch(gpu, second, fresh);

  ChaseBatchOptions resumed;
  ReplicaPool pool;
  resumed.pool = &pool;
  const auto first_results = run_chase_batch(gpu, first, resumed);
  // One resumable walk per key, shorter than every walk of batch B.
  ASSERT_EQ(pool.warm_ledger.size(), 2u);
  for (const auto& [key, entries] : pool.warm_ledger) {
    ASSERT_EQ(entries.size(), 1u);
    const auto next = std::find_if(
        second.begin(), second.end(), [&](const ChaseSpec& spec) {
          return spec.config.stride_bytes == key.stride_bytes;
        });
    ASSERT_NE(next, second.end());
    EXPECT_LT(entries[0].steps, next->config.array_bytes / key.stride_bytes);
  }
  const auto after = run_chase_batch(gpu, second, resumed);
  EXPECT_TRUE(equal_results(after, alone));
  EXPECT_TRUE(equal_results(first_results, cold_reference(gpu, first)));
  EXPECT_TRUE(equal_results(after, cold_reference(gpu, second)));
}

TEST(WarmSharing, LedgerRecordsWalksSortedWithMonotoneWarmCost) {
  // Every completed chain records its longest walk; records stay sorted
  // strictly ascending by steps with cumulative warm cost monotone in walk
  // length (a longer walk of the same key can never cost less).
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = chain_specs(gpu);
  ChaseBatchOptions options;
  ReplicaPool pool;
  options.pool = &pool;
  (void)run_chase_batch(gpu, specs, options);
  // A second batch of shorter walks must extend the record set, not clobber
  // the longer walks.
  const std::vector<ChaseSpec> shorter(specs.begin(), specs.begin() + 3);
  (void)run_chase_batch(gpu, shorter, options);
  EXPECT_FALSE(pool.warm_ledger.empty());
  for (const auto& [key, entries] : pool.warm_ledger) {
    ASSERT_FALSE(entries.empty());
    for (std::size_t i = 1; i < entries.size(); ++i) {
      EXPECT_LT(entries[i - 1].steps, entries[i].steps);
      EXPECT_LE(entries[i - 1].cum_warm_cycles, entries[i].cum_warm_cycles);
    }
  }
}

TEST(WarmSharing, ResampledChasesDrawFreshNoise) {
  // Two chases identical up to the resample index share a WarmKey but must
  // not share a noise stream: the resample exists to decorrelate repeated
  // measurements. Both must still be independent of batch composition.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  PChaseConfig config;
  config.base = gpu.alloc(16 * KiB, 256);
  config.array_bytes = 6 * KiB;
  config.stride_bytes = 32;
  config.record_count = 128;
  PChaseConfig resampled = config;
  resampled.resample = 1;

  const std::vector<ChaseSpec> both = {ChaseSpec::plain(config),
                                       ChaseSpec::plain(resampled)};
  const auto together = run_chase_batch(gpu, both, {});
  EXPECT_NE(together[0].latencies, together[1].latencies);

  const auto alone =
      run_chase_batch(gpu, std::vector<ChaseSpec>{both[1]}, {});
  EXPECT_EQ(together[1].latencies, alone[0].latencies);
  EXPECT_EQ(together[1].total_cycles, alone[0].total_cycles);
}

TEST(WarmSharing, ChainMembersBookTheirWholeColdWarmWalk) {
  // Sharing warm-up saves host work, never modelled cycles: every chain
  // member books the whole cold warm walk of its spec, as the real tool
  // warms each array from scratch, so a chain's warm total is the sum of
  // its members' cold walks, far above its longest walk.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = chain_specs(gpu);
  ChaseBatchOptions options;
  ReplicaPool pool;
  options.pool = &pool;
  const auto results = run_chase_batch(gpu, specs, options);
  // chain_specs lays out two chains (one per stride), in increasing walk
  // length — exactly the chain order the planner derives.
  for (const std::size_t start : {std::size_t{0}, kChainLength}) {
    std::uint64_t chain_warm = 0;
    std::uint64_t longest_cold_warm = 0;
    for (std::size_t i = start; i < start + kChainLength; ++i) {
      const auto alone = cold_reference(gpu, {specs[i]});
      EXPECT_TRUE(equal_results({results[i]}, alone)) << "spec " << i;
      EXPECT_GT(results[i].warm_cycles, 0u) << "spec " << i;
      chain_warm += results[i].warm_cycles;
      longest_cold_warm = alone[0].warm_cycles;
    }
    EXPECT_GT(chain_warm, 2 * longest_cold_warm);
  }
}

}  // namespace
}  // namespace mt4g::runtime
