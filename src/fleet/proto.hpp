// The fleet worker wire protocol: line-delimited JSON over pipes.
//
// A coordinator (supervise.hpp) and its worker processes (worker.hpp) speak
// newline-terminated, single-line JSON records — one record per line, never a
// newline inside a record (json::Value::dump(-1, exact) compact form; strings
// escape control characters, and doubles are exact, so a report crosses the
// pipe bit for bit). The protocol is deliberately tiny:
//
//   coordinator -> worker
//     {"type":"job","index":N,"attempt":A,"timeout":S,"job":{...}}
//     {"type":"shutdown"}
//
//   worker -> coordinator
//     {"type":"ready"}                       startup handshake
//     {"type":"hb"}                          heartbeat (liveness only)
//     {"type":"done","index":N,"key":K,"wall":S,"report":{...}}
//     {"type":"failed","index":N,"key":K,"error":E,
//      "timed_out":B,"permanent":B,"wall":S}
//
// Jobs travel fully by value — the assignment embeds the resolved GpuSpec as
// a STRING holding its canonical spec JSON — so a worker needs no registry
// lookup and a custom --model-spec sweep shards exactly like a built-in one.
//
// Robustness contract: parse_worker_message() never throws on hostile input.
// A truncated, garbage, or type-confused worker line returns nullopt with a
// reason, and the supervisor classifies it as a *worker* failure (kill +
// contain + retry) — a broken worker must never crash the coordinator.
// parse_worker_command() gives the worker the same protection in the other
// direction.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/json.hpp"
#include "core/report.hpp"
#include "fleet/job.hpp"

namespace mt4g::fleet {

/// DiscoveryJob as a self-contained JSON value (resolved spec inline).
json::Value job_to_json(const DiscoveryJob& job);

/// Rebuilds a job from job_to_json() output.
/// @throws std::invalid_argument on any malformed or missing field.
DiscoveryJob job_from_json(const json::Value& doc);

/// One parsed coordinator -> worker line.
struct WorkerCommand {
  enum class Type { kJob, kShutdown };
  Type type = Type::kShutdown;
  std::size_t index = 0;        ///< job slot in the coordinator's sweep
  std::uint32_t attempt = 1;    ///< 1-based global attempt of this job
  double timeout_seconds = 0.0; ///< per-attempt deadline; <= 0 = unlimited
  DiscoveryJob job;             ///< valid for kJob
};

/// Encodes an assignment / shutdown line (newline included).
std::string encode_job_assignment(const DiscoveryJob& job, std::size_t index,
                                  std::uint32_t attempt,
                                  double timeout_seconds);
std::string encode_shutdown();

/// Parses a coordinator line on the worker side. Never throws: a malformed
/// line yields nullopt and a reason (the worker reports it and exits — its
/// input stream can no longer be trusted).
std::optional<WorkerCommand> parse_worker_command(const std::string& line,
                                                  std::string* reason);

/// One parsed worker -> coordinator line.
struct WorkerMessage {
  enum class Type { kReady, kHeartbeat, kDone, kFailed };
  Type type = Type::kReady;
  std::size_t index = 0;
  std::string key;
  std::string error;            ///< kFailed: the attempt's error text
  bool timed_out = false;       ///< kFailed: deadline expiry (retryable)
  bool permanent = false;       ///< kFailed: malformed job, never retried
  double wall_seconds = 0.0;
  core::TopologyReport report;  ///< valid for kDone
};

/// Encodes worker -> coordinator lines (newline included).
std::string encode_ready();
std::string encode_heartbeat();
std::string encode_done(std::size_t index, const std::string& key,
                        const core::TopologyReport& report,
                        double wall_seconds);
std::string encode_failed(std::size_t index, const std::string& key,
                          const std::string& error, bool timed_out,
                          bool permanent, double wall_seconds);

/// Parses a worker line on the coordinator side. Never throws — any level of
/// corruption (invalid JSON, wrong shape, unreadable report) is reported via
/// nullopt + reason and handled as a worker failure by the supervisor.
std::optional<WorkerMessage> parse_worker_message(const std::string& line,
                                                  std::string* reason);

}  // namespace mt4g::fleet
