// Tests for the compiled access path: golden equivalence between the
// compiled (batched Gpu::run_pass) and reference (per-load access_traced)
// p-chase engines, the zero-allocation guarantee of the hot pass loop, and
// the page-by-page allocation of cache way state that keeps forks cheap.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/mt4g.hpp"
#include "core/output/json_output.hpp"
#include "fleet/fleet.hpp"
#include "runtime/kernels.hpp"
#include "sim/registry.hpp"

// --- Counting allocator hooks ------------------------------------------------
// Global operator new/delete replacements that count allocations and the
// bytes they ask for, so the zero-allocation tests below can assert that a
// batched pass performs no per-load heap traffic. Counting is process-wide;
// the tests read deltas.

namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_allocated_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  g_allocated_bytes += size;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// libstdc++'s std::get_temporary_buffer (std::stable_sort's scratch) asks
// the nothrow forms and frees through the replaced sized delete, so they must
// come from malloc too.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  g_allocated_bytes += size;
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mt4g {
namespace {

using sim::Element;

// --- Golden equivalence ------------------------------------------------------

std::string report_json(const std::string& model, runtime::PChaseEngine engine,
                        const core::DiscoverOptions& options = {}) {
  fleet::DiscoveryJob job;
  job.model = model;
  job.options = options;
  runtime::ScopedPChaseEngine scope(engine);
  return core::to_json_string(fleet::run_job(job));
}

TEST(AccessPathEquivalence, FullReportsIdenticalForEveryRegistryModel) {
  // Full-report equivalence on every registry model at the default seed.
  // The expensive NVIDIA datacenter models (whose L2 discovery dominates the
  // wall time) are covered element-by-element in the test below and in full
  // by bench/discovery_hotpath, so this loop skips only them.
  for (const std::string& model : sim::registry_all_names()) {
    const auto& spec = sim::registry_get(model);
    if (spec.vendor == sim::Vendor::kNvidia &&
        spec.at(Element::kL2).size_bytes > 8 * MiB) {
      continue;
    }
    const std::string compiled =
        report_json(model, runtime::PChaseEngine::kCompiled);
    const std::string reference =
        report_json(model, runtime::PChaseEngine::kReference);
    EXPECT_EQ(compiled, reference) << model;
  }
}

TEST(AccessPathEquivalence, LargeNvidiaModelsIdenticalPerElement) {
  // The big-L2 NVIDIA models, restricted per element so the suite stays
  // fast; every load path (L1/Tex/RO/Const chains and the L2 bypass) is
  // exercised. bench/discovery_hotpath covers the unrestricted reports.
  const char* elements[] = {"L1",        "TEXTURE", "READONLY", "CONST_L1",
                            "CONST_L15", "SHARED",  "DMEM"};
  for (const std::string& model : sim::registry_all_names()) {
    const auto& spec = sim::registry_get(model);
    if (spec.vendor != sim::Vendor::kNvidia ||
        spec.at(Element::kL2).size_bytes <= 8 * MiB) {
      continue;
    }
    for (const char* element : elements) {
      core::DiscoverOptions options;
      options.only = {sim::parse_element(element)};
      const std::string compiled =
          report_json(model, runtime::PChaseEngine::kCompiled, options);
      const std::string reference =
          report_json(model, runtime::PChaseEngine::kReference, options);
      EXPECT_EQ(compiled, reference) << model << " --only " << element;
    }
  }
}

TEST(AccessPathEquivalence, KernelLevelResultsMatch) {
  // Below the collector: run_pchase itself must agree between engines for
  // both a fitting and a thrashing configuration, including the recorded
  // latency series, the served-by counters and the cycle totals. The
  // L1-bypass chases walk TestGPU-NV's 32 KiB L2 segment alone, below and
  // above its capacity (at 33 KiB only some sets overflow), where the
  // compiled engine decides the timed pass from the warm fill. Either
  // engine leaves the Gpu flushed.
  struct Case {
    std::uint64_t array_bytes;
    bool bypass_l1;
  };
  for (const Case c : {Case{2 * KiB, false}, Case{16 * KiB, false},
                       Case{16 * KiB, true}, Case{33 * KiB, true},
                       Case{64 * KiB, true}}) {
    const std::uint64_t array_bytes = c.array_bytes;
    sim::Gpu compiled_gpu(sim::registry_get("TestGPU-NV"), 7);
    sim::Gpu reference_gpu(sim::registry_get("TestGPU-NV"), 7);
    runtime::PChaseConfig config;
    config.flags.bypass_l1 = c.bypass_l1;
    config.array_bytes = array_bytes;
    config.stride_bytes = 32;
    config.base = compiled_gpu.alloc(array_bytes);
    ASSERT_EQ(config.base, reference_gpu.alloc(array_bytes));

    runtime::PChaseResult compiled, reference;
    {
      runtime::ScopedPChaseEngine scope(runtime::PChaseEngine::kCompiled);
      compiled = runtime::run_pchase(compiled_gpu, config);
    }
    {
      runtime::ScopedPChaseEngine scope(runtime::PChaseEngine::kReference);
      reference = runtime::run_pchase(reference_gpu, config);
    }
    EXPECT_EQ(compiled.latencies, reference.latencies) << array_bytes;
    EXPECT_EQ(compiled.served_by, reference.served_by) << array_bytes;
    EXPECT_EQ(compiled.total_cycles, reference.total_cycles) << array_bytes;
    EXPECT_EQ(compiled.timed_loads, reference.timed_loads) << array_bytes;
    if (c.bypass_l1) {
      EXPECT_EQ(compiled_gpu.timed_loads_stepped(), 0u)
          << array_bytes << ": the timed pass is decided";
    }
    EXPECT_EQ(compiled_gpu.flushed_caches(), reference_gpu.flushed_caches())
        << array_bytes;
  }

  // Dual-CU chases on TestGPU-AMD's sL1d -> L2 path (1 KiB sL1d, groups of
  // two CUs): CU 1 shares CU 0's sL1d, CU 2 does not. Only with another
  // sL1d does the partner leave CU 0's walk alone, and then the timed pass
  // is decided though the path has two levels: the sL1d holds the walk, or
  // its misses hit the L2, which holds both arrays whole.
  for (const std::uint32_t partner : {1u, 2u}) {
    for (const std::uint64_t array_bytes : {3 * KiB / 4, 1 * KiB, 2 * KiB}) {
      sim::Gpu compiled_gpu(sim::registry_get("TestGPU-AMD"), 7);
      sim::Gpu reference_gpu(sim::registry_get("TestGPU-AMD"), 7);
      runtime::PChaseConfig config;
      config.space = sim::Space::kScalar;
      config.array_bytes = array_bytes;
      config.stride_bytes = 64;
      config.base = compiled_gpu.alloc(array_bytes);
      const std::uint64_t base_b = compiled_gpu.alloc(array_bytes);
      ASSERT_EQ(config.base, reference_gpu.alloc(array_bytes));
      ASSERT_EQ(base_b, reference_gpu.alloc(array_bytes));
      ASSERT_EQ(compiled_gpu.compile_path({0, 0}, sim::Space::kScalar).depth,
                2u);

      runtime::PChaseResult compiled, reference;
      {
        runtime::ScopedPChaseEngine scope(runtime::PChaseEngine::kCompiled);
        compiled = runtime::run_dual_cu_pchase(compiled_gpu, config, partner,
                                               base_b);
      }
      {
        runtime::ScopedPChaseEngine scope(runtime::PChaseEngine::kReference);
        reference = runtime::run_dual_cu_pchase(reference_gpu, config,
                                                partner, base_b);
      }
      const std::string where = "partner CU " + std::to_string(partner) +
                                ", " + std::to_string(array_bytes) + " B";
      EXPECT_EQ(compiled.latencies, reference.latencies) << where;
      EXPECT_EQ(compiled.served_by, reference.served_by) << where;
      EXPECT_EQ(compiled.warm_cycles, reference.warm_cycles) << where;
      EXPECT_EQ(compiled.total_cycles, reference.total_cycles) << where;
      EXPECT_EQ(compiled.timed_loads, reference.timed_loads) << where;
      EXPECT_EQ(compiled_gpu.miss_count(0, Element::kDeviceMem),
                reference_gpu.miss_count(0, Element::kDeviceMem))
          << where;
      const bool decided = partner == 2;
      EXPECT_EQ(compiled_gpu.timed_loads_stepped(),
                decided ? 0u : compiled.timed_loads)
          << where << (decided ? ": the timed pass is decided" : ": it steps");
    }
  }
}

// --- Zero allocation ---------------------------------------------------------

/// Pages of way state holding a line of [base, base + bytes), summed over
/// the levels of @p path. A set never empties before a flush, so after a
/// walk over that range these are exactly the pages of the sets it wrote.
std::size_t pages_holding(const sim::AccessPath& path, std::uint64_t base,
                          std::uint64_t bytes) {
  std::size_t pages = 0;
  for (std::size_t k = 0; k < path.depth; ++k) {
    const sim::SectoredCache& cache = *path.levels[k].cache;
    const std::uint64_t line_bytes = cache.geometry().line_bytes;
    std::set<std::uint64_t> held;
    for (std::uint64_t line = base / line_bytes;
         line <= (base + bytes - 1) / line_bytes; ++line) {
      if (cache.peek(line * line_bytes).line_hit) {
        held.insert(line % cache.num_sets() / cache.sets_per_page());
      }
    }
    pages += held.size();
  }
  return pages;
}

TEST(AccessPathAllocation, RunPassAllocatesNothingPerLoad) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 1);
  const std::uint64_t bytes = 64 * KiB;  // larger than L1+L2: misses too
  const std::uint64_t base = gpu.alloc(bytes);
  const sim::AccessPath path = gpu.compile_path({0, 0}, sim::Space::kGlobal);

  sim::ElementCounts served;
  std::vector<std::uint32_t> record;
  record.reserve(512);

  // Way state is allocated a page at a time, on the first write to one of
  // its sets: a first pass on a fresh Gpu allocates once per page it writes
  // (one L1 page and one L2 page on TestGPU-NV), never per load.
  const std::size_t first = g_allocations.load();
  gpu.run_pass(path, base, 32, bytes / 32);
  const std::size_t first_pass = g_allocations.load() - first;
  EXPECT_EQ(first_pass, pages_holding(path, base, bytes))
      << "a first pass allocates once per page it writes";
  EXPECT_EQ(first_pass, 2u);

  const std::size_t before = g_allocations.load();
  const std::uint64_t cycles =
      gpu.run_pass(path, base, 32, bytes / 32, &served, &record, 512);
  const std::size_t after = g_allocations.load();

  EXPECT_EQ(after - before, 0u) << "run_pass must not allocate";
  EXPECT_GT(cycles, 0u);
  EXPECT_EQ(served.total(), bytes / 32);
  EXPECT_EQ(record.size(), 512u);
}

TEST(AccessPathAllocation, DecidedLastPassAllocatesNothingAndWritesNoPage) {
  // A warm fill onto the empty L2 waits for the pages something reads, and
  // a last pass its fill decides reads none: neither allocates, and the
  // flush the pass ends with drops the fill unwritten. The passes: a full
  // one over a walk that overflows some sets, a capped one, a sparse one
  // and a cold one, each drawing its unrecorded noise in bulk. A peek
  // after a fill writes, and allocates, exactly the page it reads.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 1);
  const std::uint64_t bytes = 48 * KiB;  // above the 32 KiB L2 segment
  const std::uint64_t base = gpu.alloc(bytes);
  sim::AccessFlags cg;
  cg.bypass_l1 = true;
  const sim::AccessPath path =
      gpu.compile_path({0, 0}, sim::Space::kGlobal, cg);
  ASSERT_EQ(path.depth, 1u);
  struct Pass {
    std::uint64_t stride;
    std::uint64_t steps;
    bool warm;
  };
  sim::ElementCounts served;
  std::vector<std::uint32_t> record;
  record.reserve(512);
  const std::size_t before = g_allocations.load();
  std::uint64_t loads = 0;
  for (const Pass pass : {Pass{32, bytes / 32, true}, Pass{32, 300, true},
                          Pass{160, bytes / 160, true},
                          Pass{32, bytes / 32, false}}) {
    if (pass.warm) {
      gpu.run_warm_pass(path, base, pass.stride, bytes / pass.stride);
    }
    record.clear();
    gpu.run_last_pass(path, base, pass.stride, pass.steps, &served, &record,
                      512);
    loads += pass.steps;
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(gpu.timed_loads_stepped(), 0u) << "every pass is decided";
  EXPECT_EQ(gpu.pages_written(), 0u);
  EXPECT_EQ(gpu.fills_dropped(), 3u);
  EXPECT_EQ(served.total(), loads);

  const sim::SectoredCache& l2 = *path.levels[0].cache;
  gpu.run_warm_pass(path, base, 32, bytes / 32);
  const std::size_t peek_start = g_allocations.load();
  EXPECT_TRUE(l2.peek(base + bytes - 32).sector_hit);
  EXPECT_EQ(g_allocations.load() - peek_start, 1u) << "the page it reads";
  const std::size_t again = g_allocations.load();
  EXPECT_TRUE(l2.peek(base + bytes - 64).sector_hit);
  EXPECT_EQ(g_allocations.load() - again, 0u) << "a written page";
}

TEST(AccessPathAllocation, CompilePathAllocatesNothing) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 1);
  const std::size_t before = g_allocations.load();
  const sim::AccessPath path = gpu.compile_path({0, 0}, sim::Space::kGlobal);
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "compile_path must not allocate";
  EXPECT_EQ(path.depth, 2u);  // L1 -> L2
}

TEST(AccessPathAllocation, WholePchaseAllocatesOnlyTheRecordBuffer) {
  // run_pchase may allocate the result's latency buffer (one reserve), but
  // nothing per load: the allocation count must stay O(1) regardless of the
  // pass length.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 1);
  runtime::PChaseConfig config;
  config.array_bytes = 256 * KiB;  // 8192 loads per pass
  config.stride_bytes = 32;
  config.base = gpu.alloc(config.array_bytes);

  const std::size_t before = g_allocations.load();
  const auto result = runtime::run_pchase(gpu, config);
  const std::size_t after = g_allocations.load();

  EXPECT_EQ(result.timed_loads, 8192u);
  EXPECT_LE(after - before, 4u)
      << "run_pchase must allocate O(1), not O(loads)";
}

TEST(AccessPathAllocation, ForksAllocateOnlyThePagesTheyWrite) {
  // A fork builds cache geometries and empty page tables, not way state
  // (all of MI300X's way state takes 30.9 MiB).
  const sim::Gpu owner(sim::registry_get("MI300X"), 1);
  const std::size_t fork_start = g_allocated_bytes.load();
  sim::Gpu replica = owner.fork(2);
  EXPECT_LT(g_allocated_bytes.load() - fork_start, 1 * MiB);

  // A 64 KiB walk from SM 0 then allocates the pages of the sets it
  // reaches at each level, once each, and nothing else.
  const std::uint64_t bytes = 64 * KiB;
  const std::uint64_t base = replica.alloc(bytes);
  const sim::AccessPath path =
      replica.compile_path({0, 0}, sim::Space::kGlobal);
  const std::size_t count_start = g_allocations.load();
  const std::size_t bytes_start = g_allocated_bytes.load();
  replica.run_pass(path, base, 64, bytes / 64);
  const std::size_t allocations = g_allocations.load() - count_start;
  const std::size_t walk_bytes = g_allocated_bytes.load() - bytes_start;
  const std::size_t pages = pages_holding(path, base, bytes);
  EXPECT_GT(pages, 0u);
  EXPECT_EQ(allocations, pages);
  // A page holds at most kPageWays ways of tag, stamp and mask (20 bytes)
  // and a 4-byte hint per set.
  EXPECT_LE(walk_bytes, pages * sim::SectoredCache::kPageWays * 24);
}

TEST(AccessPathAllocation, CachesStayWithinTheirSizeBound) {
  // Every Gpu construction and fork builds one SectoredCache per cache of
  // the chip (393 on MI355X-preview); its members leave no padding between
  // them on LP64.
  if constexpr (sizeof(void*) == 8) {
    EXPECT_LE(sizeof(sim::SectoredCache), 208u);
  }
}

// --- Compiled-path lifecycle -------------------------------------------------

TEST(AccessPath, StalePathIsRejectedAfterL2Rebuild) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 1);
  const sim::AccessPath path = gpu.compile_path({0, 0}, sim::Space::kGlobal);
  gpu.set_l2_fetch_granularity(64);
  EXPECT_THROW(gpu.run_pass(path, 4096, 32, 4), std::logic_error);
  // A freshly compiled path works again.
  const sim::AccessPath fresh = gpu.compile_path({0, 0}, sim::Space::kGlobal);
  EXPECT_NO_THROW(gpu.run_pass(fresh, 4096, 32, 4));
}

TEST(AccessPath, L2RebuildPreservesHitMissCounters) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 1);
  sim::AccessFlags cg;
  cg.bypass_l1 = true;
  const std::uint64_t base = gpu.alloc(4 * KiB);
  for (std::uint64_t i = 0; i < 64; ++i) {
    gpu.access({0, 0}, sim::Space::kGlobal, base + i * 32, cg);
  }
  const std::uint64_t hits = gpu.hit_count(0, Element::kL2);
  const std::uint64_t misses = gpu.miss_count(0, Element::kL2);
  ASSERT_GT(hits + misses, 0u);

  gpu.set_l2_fetch_granularity(64);
  EXPECT_EQ(gpu.hit_count(0, Element::kL2), hits)
      << "granularity rebuild must not zero accumulated hits";
  EXPECT_EQ(gpu.miss_count(0, Element::kL2), misses)
      << "granularity rebuild must not zero accumulated misses";
}

TEST(AccessPath, SharedSpacePathTerminatesInScratchpad) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 1);
  const sim::AccessPath path = gpu.compile_path({0, 0}, sim::Space::kShared);
  EXPECT_EQ(path.depth, 0u);
  EXPECT_EQ(path.terminal, Element::kSharedMem);
  EXPECT_FALSE(path.terminal_is_dmem);
  sim::ElementCounts served;
  gpu.run_pass(path, 0, 4, 16, &served);
  EXPECT_EQ(served.at(Element::kSharedMem), 16u);
  EXPECT_EQ(gpu.miss_count(0, Element::kDeviceMem), 0u);
}

}  // namespace
}  // namespace mt4g
