#include "runtime/kernels.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace mt4g::runtime {
namespace {

thread_local PChaseEngine t_engine = PChaseEngine::kCompiled;

void validate(const PChaseConfig& config) {
  if (config.stride_bytes == 0) {
    throw std::invalid_argument("pchase: zero stride");
  }
  if (config.array_bytes < config.stride_bytes) {
    throw std::invalid_argument("pchase: array smaller than one stride");
  }
}

/// Books @p loads under @p name and the @p stepped of them executed one
/// by one under @p stepped_name.
void book_loads(const char* name, const char* stepped_name,
                std::uint64_t loads, std::uint64_t stepped) {
  if (!obs::metrics_enabled()) return;
  obs::Metrics& metrics = obs::Metrics::instance();
  metrics.add(name, static_cast<double>(loads));
  metrics.add(stepped_name, static_cast<double>(stepped));
}

/// One untimed pass: loads the whole array to populate the caches. Warm-up
/// is noise-free in both engines — real MT4G discards warm-up timings, so
/// only the summed base latency is observable, and consuming zero noise
/// draws here means a timed pass behaves identically however its warm state
/// was produced (the closed-form walk in Gpu::run_warm_pass depends on
/// this). The loads are booked in `sim.warm_loads`, and those executed one
/// by one rather than in closed form in `sim.warm_loads_stepped`.
std::uint64_t warmup_pass(sim::Gpu& gpu, const PChaseConfig& config,
                          const sim::Placement& where) {
  const std::uint64_t steps = config.array_bytes / config.stride_bytes;
  if (t_engine == PChaseEngine::kReference) {
    std::uint64_t cycles = 0;
    for (std::uint64_t i = 0; i < steps; ++i) {
      cycles += gpu.warm_access(where, config.space,
                                config.base + i * config.stride_bytes,
                                config.flags);
    }
    book_loads("sim.warm_loads", "sim.warm_loads_stepped", steps, steps);
    return cycles;
  }
  const sim::AccessPath path =
      gpu.compile_path(where, config.space, config.flags);
  const std::uint64_t stepped_before = gpu.warm_loads_stepped();
  const std::uint64_t cycles =
      gpu.run_warm_pass(path, config.base, config.stride_bytes, steps);
  book_loads("sim.warm_loads", "sim.warm_loads_stepped", steps,
             gpu.warm_loads_stepped() - stepped_before);
  return cycles;
}

/// Cycles of a whole timed pass of @p full_steps loads when only the first
/// @p steps ran and cost @p cycles: the unexecuted tail is charged at the
/// executed loads' mean latency (floor of cycles * full_steps / steps,
/// computed without overflowing for any pass shorter than 2^32 loads).
std::uint64_t whole_pass_cycles(std::uint64_t cycles, std::uint64_t steps,
                                std::uint64_t full_steps) {
  return cycles / steps * full_steps + cycles % steps * full_steps / steps;
}

/// The timed pass, the last thing a chase runs: records the first
/// record_count latencies, classifies every executed load by the level that
/// served it, and flushes the Gpu's caches. max_timed_steps stops the walk
/// early for record-only consumers (the recorded prefix is unaffected: each
/// load depends only on the loads before it); the cycles still cover the
/// whole pass the real tool would run. The executed loads are booked in
/// `sim.timed_loads`, and those stepped one by one rather than decided by
/// Gpu::run_last_pass in `sim.timed_loads_stepped`; the flush in
/// `sim.flushed_caches`, `sim.flushed_sets`, `sim.pages_written` and
/// `sim.fills_dropped`.
void timed_pass(sim::Gpu& gpu, const PChaseConfig& config,
                PChaseResult& result) {
  const std::uint64_t full_steps = config.array_bytes / config.stride_bytes;
  std::uint64_t steps = full_steps;
  if (config.max_timed_steps != 0) {
    steps = std::min(steps, config.max_timed_steps);
  }
  result.timed_loads = steps;
  result.latencies.reserve(
      std::min<std::uint64_t>(steps, config.record_count));
  std::uint64_t cycles = 0;
  const std::uint64_t stepped_before = gpu.timed_loads_stepped();
  const std::uint64_t caches_before = gpu.flushed_caches();
  const std::uint64_t sets_before = gpu.flushed_sets();
  const std::uint64_t pages_before = gpu.pages_written();
  const std::uint64_t dropped_before = gpu.fills_dropped();
  if (t_engine == PChaseEngine::kReference) {
    for (std::uint64_t i = 0; i < steps; ++i) {
      const sim::AccessResult access = gpu.access_traced(
          config.where, config.space, config.base + i * config.stride_bytes,
          config.flags);
      cycles += access.latency;
      ++result.served_by[access.served_by];
      if (result.latencies.size() < config.record_count) {
        result.latencies.push_back(access.latency);
      }
    }
    gpu.flush_caches();
  } else {
    const sim::AccessPath path =
        gpu.compile_path(config.where, config.space, config.flags);
    cycles = gpu.run_last_pass(path, config.base, config.stride_bytes, steps,
                               &result.served_by, &result.latencies,
                               config.record_count);
  }
  book_loads("sim.timed_loads", "sim.timed_loads_stepped", steps,
             gpu.timed_loads_stepped() - stepped_before);
  if (obs::metrics_enabled()) {
    obs::Metrics& metrics = obs::Metrics::instance();
    const auto book = [&](const char* name, std::uint64_t before,
                          std::uint64_t after) {
      metrics.add(name, static_cast<double>(after - before));
    };
    book("sim.flushed_caches", caches_before, gpu.flushed_caches());
    book("sim.flushed_sets", sets_before, gpu.flushed_sets());
    book("sim.pages_written", pages_before, gpu.pages_written());
    book("sim.fills_dropped", dropped_before, gpu.fills_dropped());
  }
  result.total_cycles += whole_pass_cycles(cycles, steps, full_steps);
}

}  // namespace

PChaseEngine pchase_engine() { return t_engine; }

void set_pchase_engine(PChaseEngine engine) { t_engine = engine; }

std::uint64_t pchase_steps(const PChaseConfig& config) {
  return config.array_bytes / config.stride_bytes;
}

PChaseResult run_pchase(sim::Gpu& gpu, const PChaseConfig& config) {
  validate(config);
  PChaseResult result;
  if (config.warmup) {
    result.warm_cycles = warmup_pass(gpu, config, config.where);
    result.total_cycles += result.warm_cycles;
  }
  timed_pass(gpu, config, result);
  return result;
}

PChaseResult run_amount_pchase(sim::Gpu& gpu, const PChaseConfig& config,
                               std::uint32_t core_b, std::uint64_t base_b) {
  validate(config);
  PChaseResult result;
  // (1) Core A warm-up: fills core A's segment with array A.
  result.warm_cycles += warmup_pass(gpu, config, config.where);
  // (2) Core B warm-up of a second array: evicts array A iff both cores map
  //     to the same physical segment.
  PChaseConfig config_b = config;
  config_b.base = base_b;
  config_b.where.core = core_b;
  result.warm_cycles += warmup_pass(gpu, config_b, config_b.where);
  result.total_cycles += result.warm_cycles;
  // (3) Core A timed run: hits iff core B used a different segment.
  timed_pass(gpu, config, result);
  return result;
}

PChaseResult run_sharing_pchase(sim::Gpu& gpu, const PChaseConfig& config_a,
                                const PChaseConfig& config_b) {
  validate(config_a);
  validate(config_b);
  PChaseResult result;
  result.warm_cycles += warmup_pass(gpu, config_a, config_a.where);
  result.warm_cycles += warmup_pass(gpu, config_b, config_b.where);
  result.total_cycles += result.warm_cycles;
  timed_pass(gpu, config_a, result);
  return result;
}

PChaseResult run_dual_cu_pchase(sim::Gpu& gpu, const PChaseConfig& config_a,
                                std::uint32_t cu_b, std::uint64_t base_b) {
  validate(config_a);
  PChaseResult result;
  result.warm_cycles += warmup_pass(gpu, config_a, config_a.where);
  PChaseConfig config_second = config_a;
  config_second.base = base_b;
  config_second.where.sm = cu_b;
  result.warm_cycles += warmup_pass(gpu, config_second, config_second.where);
  result.total_cycles += result.warm_cycles;
  timed_pass(gpu, config_a, result);
  return result;
}

PChaseResult run_scratchpad_chase(sim::Gpu& gpu, std::uint32_t count,
                                  std::uint32_t record_count) {
  PChaseResult result;
  result.timed_loads = count;
  // Same truncation semantics as timed_pass: store a prefix of record_count
  // latencies, and reserve only what will actually be stored.
  const std::uint32_t recorded = std::min(count, record_count);
  result.latencies.reserve(recorded);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t latency = gpu.scratchpad_access();
    result.total_cycles += latency;
    if (result.latencies.size() < recorded) result.latencies.push_back(latency);
  }
  const sim::Element scratch = gpu.spec().vendor == sim::Vendor::kNvidia
                                   ? sim::Element::kSharedMem
                                   : sim::Element::kLds;
  result.served_by[scratch] = count;
  return result;
}

double run_stream(sim::Gpu& gpu, const sim::StreamConfig& config) {
  return sim::stream_bandwidth(gpu, config);
}

}  // namespace mt4g::runtime
