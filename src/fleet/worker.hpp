// Fleet worker process — the child half of the supervised fleet.
//
// run_worker_loop() is the body of the hidden `mt4g_cli fleet-worker`
// subcommand: it reads job assignments from stdin (proto.hpp line protocol)
// and runs each as exactly ONE attempt through run_attempt(), the attempt
// function an in-process sweep's pool threads call (coordinator.hpp). It
// reports the classified outcome and decides nothing else: the coordinator
// in run_supervised() owns the single retry budget that covers exceptions,
// timeouts, and process crashes alike, and the cache, journal and metrics.
//
// Liveness: a background thread emits a heartbeat line every
// WorkerConfig::heartbeat_ms while the loop runs, so the supervisor can tell
// "slow job" from "dead worker" without guessing. All stdout writes go
// through one mutex — the line protocol forbids interleaving.
//
// Fault cooperation: when a plan is armed the worker resolves the
// fleet.worker.job site per assignment via Injector::actions() — crash means
// _exit(137) mid-job (the supervisor sees a SIGKILL-like death),
// stall_heartbeat silences the heartbeat thread for the configured window so
// the supervisor's liveness timeout fires. Before either, the worker calls
// Injector::advance() with the coordinator-sent global attempt index, which
// keeps per-(rule, key) occurrence counters coherent across respawned
// processes — "the first attempt crashes" stays the first attempt of the
// *job*, whichever process serves it.
//
// The loop takes plain streams, so tests drive it in-process with
// stringstreams — no fork needed to cover the protocol behaviour.
#pragma once

#include <cstdint>
#include <iosfwd>

namespace mt4g::fleet {

struct WorkerConfig {
  /// Heartbeat period in milliseconds; 0 disables the heartbeat thread.
  std::uint32_t heartbeat_ms = 500;
};

/// Runs the worker command loop until shutdown or EOF.
/// Returns the process exit code: 0 after a clean shutdown command or EOF
/// between jobs, 2 when the command stream turns to garbage (the worker
/// cannot trust its stdin any further and says so on stderr).
int run_worker_loop(std::istream& in, std::ostream& out,
                    const WorkerConfig& config = {});

}  // namespace mt4g::fleet
