#include "fleet/scheduler.hpp"

#include <thread>

#include "exec/executor.hpp"
#include "fleet/coordinator.hpp"
#include "obs/trace.hpp"
#include "sim/registry.hpp"

namespace mt4g::fleet {

std::vector<JobResult> run_sweep(const std::vector<DiscoveryJob>& jobs,
                                 const SchedulerOptions& options,
                                 std::vector<JobResult> prefilled) {
  Coordinator coordinator(jobs, options, std::move(prefilled));

  std::uint32_t workers = options.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }

  // Touch the registry once before fanning out. Its lazy singletons are
  // initialisation-thread-safe anyway (C++11 magic statics); warming them here
  // just keeps the first claimed jobs from serialising on the init lock.
  (void)sim::registry_all_names();

  // The shared executor runs the fan-out: workers == 1 degenerates to the
  // serial in-order loop on this thread (same code path, same result
  // layout), and a job's own nested parallelism (sweep_threads > 1 inside
  // discovery) composes on the same pool without spawning extra threads.
  exec::shared_executor().parallel_for(
      jobs.size(), workers, [&](std::size_t index, std::uint32_t) {
        // Span names allocate; skip the key() format when not tracing.
        const obs::SpanGuard job_span(
            "fleet.job:",
            obs::tracing_enabled() ? jobs[index].key() : std::string());
        if (coordinator.settle_early(index)) return;
        for (;;) {
          const std::uint32_t attempt = coordinator.start_attempt(index);
          const auto backoff = coordinator.end_attempt(
              index, run_attempt(jobs[index], options.retry.timeout_seconds,
                                 attempt));
          if (!backoff) return;
          std::this_thread::sleep_for(*backoff);
          if (coordinator.stopping()) return coordinator.skip(index);
        }
      });
  return coordinator.take_results();
}

}  // namespace mt4g::fleet
