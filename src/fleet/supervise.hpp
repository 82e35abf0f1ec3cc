// Process-isolated fleet supervisor — crash containment for discovery sweeps.
//
// run_supervised() runs run_sweep()'s coordinator (scheduler.hpp), but each
// attempt runs in one of SupervisorOptions::procs worker processes
// (worker_argv, normally the binary's hidden `fleet-worker` entry) over the
// proto.hpp line protocol, and a retry re-enters the queue behind its
// backoff gate. Every way a worker can die — nonzero exit, fatal signal, EOF
// mid-job, garbage on the pipe, missed heartbeat — ends the attempt as a
// crash under the SAME retry budget; a job that keeps killing its workers
// fails with JobResult::crashed, and the sweep carries on. Every worker is
// reaped on every way out, an exception from on_result included.
//
// Determinism contract (gated by tests/test_fleet_supervise.cpp): results
// are slot-indexed by job order and every attempt rebuilds its Gpu from the
// job spec, so the aggregate report is byte-identical for every
// procs × sweep_threads combination, crash-healed runs included.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/job.hpp"
#include "fleet/scheduler.hpp"

namespace mt4g::fleet {

/// SchedulerOptions plus the worker pool. run_supervised() ignores
/// `workers`: its concurrency is `procs`.
struct SupervisorOptions : SchedulerOptions {
  /// Worker processes to keep alive while work remains; min 1.
  std::uint32_t procs = 2;
  /// Worker command line, argv[0] first (e.g. {"./mt4g_cli", "fleet-worker"}).
  std::vector<std::string> worker_argv;
  /// A worker silent for longer than this (no line of any kind; heartbeats
  /// count) is presumed dead: killed, reaped, and its job crash-contained.
  /// <= 0 disables the liveness check. Must comfortably exceed the worker's
  /// heartbeat period.
  double heartbeat_timeout_seconds = 10.0;
};

/// Runs every job across supervised worker processes; results in job order.
/// @p prefilled is as for run_sweep(). Never throws for per-job failures;
/// throws std::invalid_argument for an unusable configuration (empty
/// worker_argv).
std::vector<JobResult> run_supervised(const std::vector<DiscoveryJob>& jobs,
                                      const SupervisorOptions& options,
                                      std::vector<JobResult> prefilled = {});

}  // namespace mt4g::fleet
