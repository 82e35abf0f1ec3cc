// Batch results against the cold reference: the correctness contract of
// runtime/batch.cpp. Every chase of a batch runs cold on its own replica, so
// its result must equal the reference engine running the spec alone in a
// batch of its own — for every chase shape, for every sweep thread count,
// for the long runs of growing arrays over one base and stride that the size
// sweeps produce, and on a pool earlier batches have used. Cycles follow the
// one cost rule: every result books its whole warm walk and timed pass as a
// cold run of its spec would. Resampled chases draw fresh noise.
#include <vector>

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "exec/executor.hpp"
#include "runtime/batch.hpp"
#include "runtime/kernels.hpp"
#include "sim/registry.hpp"

namespace mt4g::runtime {
namespace {

// Chases per chain in chain_specs.
constexpr std::size_t kChainLength = 20;

// A chain as the size benchmark would produce it: many plain chases on one
// base/stride with growing array sizes, plus a second stride (a second
// chain) and bounded timed passes of differing caps.
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
// chases next to amount/sharing specs.
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
// singleton, one batch per spec — no closed forms, no memo — and every batch
// result must carry exactly its cycles too.
std::vector<PChaseResult> cold_reference(sim::Gpu& gpu,
                                         const std::vector<ChaseSpec>& specs) {
  ScopedPChaseEngine scope(PChaseEngine::kReference);
  std::vector<PChaseResult> results;
  for (const ChaseSpec& spec : specs) {
    results.push_back(run_chase_batch(gpu, std::span(&spec, 1))[0]);
  }
  return results;
}

TEST(WarmSharing, SharedTimedPassMatchesColdChaseForEveryShape) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = mixed_specs(gpu);
  const auto cold = cold_reference(gpu, specs);

  exec::Executor executor(7);  // real pool threads on any host
  for (const std::uint32_t threads : {1u, 3u, 8u}) {
    ReplicaPool pool;
    pool.threads = threads;
    pool.executor = &executor;
    const auto shared = run_chase_batch(gpu, specs, &pool);
    EXPECT_TRUE(equal_results(cold, shared))
        << "threads=" << threads << " diverged from the cold reference";
  }
}

TEST(WarmSharing, DualCuBatchesMatchTheColdReference) {
  // The fourth chase shape lives on the AMD model: CU pairs probing the
  // shared sL1d. They ride in the same batches as plain chases over the
  // same array and must stay cold-identical.
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
    ReplicaPool pool;
    pool.threads = threads;
    pool.executor = &executor;
    EXPECT_TRUE(equal_results(cold, run_chase_batch(gpu, specs, &pool)))
        << "threads=" << threads << " diverged from the cold reference";
  }
}

TEST(WarmSharing, UsedPoolMatchesAFreshPoolAcrossBatches) {
  // Batch A runs the short walks of each chain on a pool; batch B runs the
  // longer walks over the same arrays on that pool. Nothing batch A left
  // behind may move a measurement or a cycle of batch B: it books exactly
  // what a fresh pool and the cold reference book.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = chain_specs(gpu);
  std::vector<ChaseSpec> first;
  std::vector<ChaseSpec> second;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    (i % kChainLength < kChainLength / 2 ? first : second).push_back(specs[i]);
  }

  ReplicaPool fresh_pool;
  const auto alone = run_chase_batch(gpu, second, &fresh_pool);

  ReplicaPool pool;
  const auto first_results = run_chase_batch(gpu, first, &pool);
  const auto after = run_chase_batch(gpu, second, &pool);
  EXPECT_TRUE(equal_results(after, alone));
  EXPECT_TRUE(equal_results(first_results, cold_reference(gpu, first)));
  EXPECT_TRUE(equal_results(after, cold_reference(gpu, second)));
}

TEST(WarmSharing, ResampledChasesDrawFreshNoise) {
  // Two chases identical up to the resample index walk the same array but
  // must not share a noise stream: the resample exists to decorrelate
  // repeated measurements. Both must still be independent of batch
  // composition.
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
  const auto together = run_chase_batch(gpu, both);
  EXPECT_NE(together[0].latencies, together[1].latencies);

  const auto alone =
      run_chase_batch(gpu, std::vector<ChaseSpec>{both[1]});
  EXPECT_EQ(together[1].latencies, alone[0].latencies);
  EXPECT_EQ(together[1].total_cycles, alone[0].total_cycles);
}

TEST(WarmSharing, ChainMembersBookTheirWholeColdWarmWalk) {
  // Every chain member books the whole cold warm walk of its spec, as the
  // real tool warms each array from scratch, so a chain's warm total is the
  // sum of its members' cold walks, far above its longest walk.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = chain_specs(gpu);
  ReplicaPool pool;
  const auto results = run_chase_batch(gpu, specs, &pool);
  // chain_specs lays out two chains (one per stride), in increasing walk
  // length.
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
