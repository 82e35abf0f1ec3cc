#include "probes.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "common/units.hpp"
#include "sim/cache.hpp"
#include "sim/gpu.hpp"
#include "sim/registry.hpp"

namespace perfbench {

namespace fleet = mt4g::fleet;
namespace sim = mt4g::sim;
using mt4g::KiB;
using mt4g::MiB;

namespace {

constexpr int kReps = 5;

/// The largest NVIDIA and AMD models, where replica costs peak (MI300X and
/// MI355X carry a 256 MiB L3).
const char* const kSimModels[] = {"H100-80", "MI300X", "MI355X-preview"};

/// Keeps probe results observable so the timed loops cannot be dropped.
volatile std::uint64_t g_sink = 0;

template <typename Body>
double median_ms(int reps, Body&& body) {
  std::vector<double> ms;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    body();
    ms.push_back(seconds_since(start) * 1e3);
  }
  return median(ms);
}

}  // namespace

void probe_sim(std::vector<Metric>& metrics) {
  {
    // Raw SectoredCache::access over the geometry bench/micro_sim probes.
    sim::CacheGeometry geometry;
    geometry.size_bytes = 238 * KiB;
    geometry.line_bytes = 128;
    geometry.sector_bytes = 32;
    geometry.associativity = 4;
    sim::SectoredCache cache(geometry);
    constexpr std::uint64_t kProbes = 10'000'000;
    std::uint64_t hits = 0;
    const double ms = median_ms(kReps, [&] {
      std::uint64_t address = 0;
      for (std::uint64_t i = 0; i < kProbes; ++i) {
        hits += cache.access(address).sector_hit ? 1 : 0;
        address = (address + 32) % (512 * KiB);
      }
    });
    g_sink = hits;
    metrics.push_back({"sim.probe_ns", ms * 1e6 / kProbes, "ns"});
  }
  {
    // Gpu::run_pass over a warm 1 MiB L1-bypassing chase: the L2 sweeps'
    // inner loop.
    sim::Gpu gpu(sim::registry_get("H100-80"), 1);
    constexpr std::uint64_t kStride = 32;
    constexpr std::uint64_t kSteps = 1 * MiB / kStride;
    constexpr int kPasses = 200;
    const std::uint64_t base = gpu.alloc(1 * MiB);
    sim::AccessFlags flags;
    flags.bypass_l1 = true;
    const sim::AccessPath path =
        gpu.compile_path({0, 0}, sim::Space::kGlobal, flags);
    std::uint64_t cycles = gpu.run_pass(path, base, kStride, kSteps);
    const double ms = median_ms(kReps, [&] {
      for (int pass = 0; pass < kPasses; ++pass) {
        cycles += gpu.run_pass(path, base, kStride, kSteps);
      }
    });
    g_sink = cycles;
    metrics.push_back({"sim.pass_mloads_s",
                       static_cast<double>(kPasses * kSteps) / (ms * 1e3),
                       "Mloads/s"});
  }
  for (const char* name : kSimModels) {
    const sim::GpuSpec& spec = sim::registry_get(name);
    const std::string model = name;
    std::optional<sim::Gpu> gpu;
    std::vector<double> construct_ms;
    for (int rep = 0; rep < kReps; ++rep) {
      gpu.reset();
      const auto start = Clock::now();
      gpu.emplace(spec, 1);
      construct_ms.push_back(seconds_since(start) * 1e3);
    }
    metrics.push_back(
        {"sim.construct_ms." + model, median(construct_ms), "ms"});

    std::optional<sim::Gpu> replica;
    std::vector<double> fork_ms;
    std::uint64_t fork_bytes = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      replica.reset();
      const std::uint64_t heap_before = heap_bytes();
      const auto start = Clock::now();
      replica.emplace(gpu->fork(1));
      fork_ms.push_back(seconds_since(start) * 1e3);
      fork_bytes = heap_bytes() - heap_before;
    }
    metrics.push_back({"sim.fork_ms." + model, median(fork_ms), "ms"});
    metrics.push_back(
        {"sim.fork_mib." + model,
         static_cast<double>(fork_bytes) / static_cast<double>(MiB), "MiB"});

    // Flush after a chase that dirties an 8 MiB footprint below L1, the
    // reset every batched chase pays on its replica.
    constexpr std::uint64_t kFootprint = 8 * MiB;
    constexpr std::uint64_t kStride = 64;
    const std::uint64_t base = replica->alloc(kFootprint);
    sim::AccessFlags flags;
    flags.bypass_l1 = true;
    const sim::AccessPath path =
        replica->compile_path({0, 0}, sim::Space::kGlobal, flags);
    std::vector<double> flush_ms;
    for (int rep = 0; rep < kReps; ++rep) {
      g_sink = replica->run_warm_pass(path, base, kStride,
                                      kFootprint / kStride);
      const auto start = Clock::now();
      replica->flush_caches();
      flush_ms.push_back(seconds_since(start) * 1e3);
    }
    metrics.push_back({"sim.flush_ms." + model, median(flush_ms), "ms"});
  }
}

void probe_fleet(std::vector<Metric>& metrics,
                 const std::vector<fleet::JobResult>& results,
                 const std::string& cache_path, const std::string& scratch_dir,
                 const std::vector<std::string>& worker_argv) {
  metrics.push_back(
      {"fleet.cache_bytes",
       static_cast<double>(std::filesystem::file_size(cache_path)), "bytes"});
  const double load_ms = median_ms(kReps, [&] {
    fleet::ResultCache cache(cache_path);
    g_sink = cache.size();
  });
  metrics.push_back({"fleet.cache_load_ms", load_ms, "ms"});
  {
    fleet::ResultCache cache(cache_path);
    int save = 0;
    const double save_ms = median_ms(kReps, [&] {
      const std::string path =
          scratch_dir + "/probe-save-" + std::to_string(save++) + ".json";
      if (!cache.save_as(path)) {
        std::fprintf(stderr, "perfbench: cache save to %s failed\n",
                     path.c_str());
      }
    });
    metrics.push_back({"fleet.cache_save_ms", save_ms, "ms"});
  }
  {
    auto journal = fleet::RunJournal::open(scratch_dir + "/probe.journal");
    const auto start = Clock::now();
    for (const fleet::JobResult& result : results) journal.append(result);
    const auto appends = std::max<std::size_t>(results.size(), 1);
    metrics.push_back(
        {"fleet.journal_append_ms",
         seconds_since(start) * 1e3 / static_cast<double>(appends), "ms"});
  }
  {
    // One tiny job over one fresh worker process: spawn, handshake, reap.
    fleet::SweepPlan plan;
    plan.models = {"TestGPU-AMD"};
    plan.include_mig = false;
    const auto jobs = fleet::expand_jobs(plan);
    fleet::SupervisorOptions options;
    options.procs = 1;
    options.worker_argv = worker_argv;
    const double startup_ms = median_ms(kReps, [&] {
      g_sink = fleet::run_supervised(jobs, options).size();
    });
    metrics.push_back({"fleet.procs_startup_ms", startup_ms, "ms"});
  }
}

}  // namespace perfbench
