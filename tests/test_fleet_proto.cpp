// Fleet wire protocol (fleet/proto.hpp): job round-trips, message
// round-trips, the never-throw contract on hostile input, and the worker
// command loop driven in-process through plain streams.
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_parse.hpp"
#include "core/output/json_output.hpp"
#include "fleet/fleet.hpp"
#include "sim/registry.hpp"

namespace mt4g::fleet {
namespace {

DiscoveryJob resolved_job(const std::string& model = "TestGPU-NV",
                          std::uint64_t seed = 42) {
  SweepPlan plan;
  plan.models = {model};
  plan.first_seed = seed;
  auto jobs = expand_jobs(plan);
  // expand_jobs pre-resolves the spec and spec hash — the form jobs travel
  // in over the wire.
  return jobs.at(0);
}

TEST(FleetProto, JobRoundTripsWithResolvedSpec) {
  DiscoveryJob job = resolved_job("TestGPU-AMD", 7);
  job.cache_config = "PreferShared";
  job.options.sweep_threads = 4;
  job.options.bench_threads = 2;
  ASSERT_NE(job.spec, nullptr);
  ASSERT_NE(job.spec_hash, 0u);

  // Round-trip through the real wire line — the dump is where a naively
  // embedded spec would lose double precision to the %.10g serialiser.
  const std::string wire = encode_job_assignment(job, 0, 1, 0.0);
  std::string reason;
  const auto command =
      parse_worker_command(wire.substr(0, wire.size() - 1), &reason);
  ASSERT_TRUE(command.has_value()) << reason;
  const DiscoveryJob& back = command->job;
  EXPECT_EQ(back.key(), job.key());
  ASSERT_NE(back.spec, nullptr);
  EXPECT_EQ(sim::spec_content_hash(*back.spec), job.spec_hash)
      << "the spec must survive the wire byte-exactly";
  EXPECT_EQ(back.model, job.model);
  EXPECT_EQ(back.seed, 7u);
  EXPECT_EQ(back.cache_config, "PreferShared");
  EXPECT_EQ(back.options.sweep_threads, 4u);
  EXPECT_EQ(back.options.bench_threads, 2u);
  EXPECT_EQ(back.spec_hash, job.spec_hash);
  ASSERT_NE(back.spec, nullptr);
  // The embedded spec must be usable standalone: same discovery output.
  EXPECT_EQ(core::to_json_string(run_job(back)),
            core::to_json_string(run_job(job)));
}

TEST(FleetProto, JobRoundTripsWithoutSpec) {
  DiscoveryJob job;  // registry lookup at run time, no embedded spec
  job.model = "TestGPU-NV";
  job.seed = 1;
  const DiscoveryJob back = job_from_json(job_to_json(job));
  EXPECT_EQ(back.model, "TestGPU-NV");
  EXPECT_EQ(back.seed, 1u);
  EXPECT_EQ(back.spec, nullptr);
  EXPECT_EQ(back.key(), job.key());
}

TEST(FleetProto, JobFromJsonRejectsMalformedDocuments) {
  const auto doc = [](const char* text) {
    json::ParseResult parsed = json::parse(text);
    EXPECT_TRUE(parsed.ok()) << text;
    return std::move(*parsed.value);
  };
  EXPECT_THROW(job_from_json(doc("null")), std::invalid_argument);
  EXPECT_THROW(job_from_json(doc("[]")), std::invalid_argument);
  EXPECT_THROW(job_from_json(doc(R"({"seed":"42"})")), std::invalid_argument);
  EXPECT_THROW(job_from_json(doc(R"({"model":7})")), std::invalid_argument);
  EXPECT_THROW(job_from_json(doc(R"({"model":"X","seed":"not-a-number"})")),
               std::invalid_argument);
}

TEST(FleetProto, CommandLinesAreSingleLinesAndRoundTrip) {
  const DiscoveryJob job = resolved_job();
  const std::string line = encode_job_assignment(job, 3, 2, 1.5);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  // The line protocol's core invariant: exactly one newline, at the end.
  EXPECT_EQ(line.find('\n'), line.size() - 1);

  std::string reason;
  const auto command =
      parse_worker_command(line.substr(0, line.size() - 1), &reason);
  ASSERT_TRUE(command.has_value()) << reason;
  EXPECT_EQ(command->type, WorkerCommand::Type::kJob);
  EXPECT_EQ(command->index, 3u);
  EXPECT_EQ(command->attempt, 2u);
  EXPECT_DOUBLE_EQ(command->timeout_seconds, 1.5);
  EXPECT_EQ(command->job.key(), job.key());

  const std::string bye = encode_shutdown();
  const auto shutdown =
      parse_worker_command(bye.substr(0, bye.size() - 1), &reason);
  ASSERT_TRUE(shutdown.has_value()) << reason;
  EXPECT_EQ(shutdown->type, WorkerCommand::Type::kShutdown);
}

TEST(FleetProto, MessageLinesRoundTrip) {
  std::string reason;
  const std::string ready = encode_ready();
  auto message = parse_worker_message(ready.substr(0, ready.size() - 1),
                                      &reason);
  ASSERT_TRUE(message.has_value()) << reason;
  EXPECT_EQ(message->type, WorkerMessage::Type::kReady);

  const std::string hb = encode_heartbeat();
  message = parse_worker_message(hb.substr(0, hb.size() - 1), &reason);
  ASSERT_TRUE(message.has_value()) << reason;
  EXPECT_EQ(message->type, WorkerMessage::Type::kHeartbeat);

  const DiscoveryJob job = resolved_job();
  const core::TopologyReport report = run_job(job);
  const std::string done = encode_done(5, job.key(), report, 0.25);
  EXPECT_EQ(done.find('\n'), done.size() - 1);
  message = parse_worker_message(done.substr(0, done.size() - 1), &reason);
  ASSERT_TRUE(message.has_value()) << reason;
  EXPECT_EQ(message->type, WorkerMessage::Type::kDone);
  EXPECT_EQ(message->index, 5u);
  EXPECT_EQ(message->key, job.key());
  EXPECT_DOUBLE_EQ(message->wall_seconds, 0.25);
  // Reports must survive the pipe byte-exactly — the determinism contract.
  EXPECT_EQ(core::to_json_string(message->report),
            core::to_json_string(report));

  const std::string failed =
      encode_failed(2, "some-key", "boom\nwith newline", true, false, 0.1);
  EXPECT_EQ(failed.find('\n'), failed.size() - 1)
      << "newlines inside strings must be escaped, never literal";
  message = parse_worker_message(failed.substr(0, failed.size() - 1), &reason);
  ASSERT_TRUE(message.has_value()) << reason;
  EXPECT_EQ(message->type, WorkerMessage::Type::kFailed);
  EXPECT_EQ(message->index, 2u);
  EXPECT_EQ(message->error, "boom\nwith newline");
  EXPECT_TRUE(message->timed_out);
  EXPECT_FALSE(message->permanent);
}

TEST(FleetProto, DoneRecordsCarryReportDoublesBitForBit) {
  // The aggregate sums and compares report doubles, so a report that crossed
  // the pipe must equal the worker's in memory, not only once printed.
  const DiscoveryJob job = resolved_job();
  core::TopologyReport report = run_job(job);
  report.simulated_seconds = 1.0 / 3.0;  // more digits than %.10g keeps
  const std::string done = encode_done(0, job.key(), report, 0.0);
  std::string reason;
  const auto message =
      parse_worker_message(done.substr(0, done.size() - 1), &reason);
  ASSERT_TRUE(message.has_value()) << reason;
  EXPECT_EQ(message->report.simulated_seconds, 1.0 / 3.0);
}

TEST(FleetProto, DoneRecordsWithAnOutOfRangeCountAreRejected) {
  // A count no report field can hold must be refused with a reason, never
  // stored as whatever the cast to an integer type happens to yield.
  const DiscoveryJob job = resolved_job();
  std::string done = encode_done(0, job.key(), run_job(job), 0.0);
  const std::string field = "\"total_cycles\":";
  const std::size_t at = done.find(field);
  ASSERT_NE(at, std::string::npos);
  const std::size_t value = at + field.size();
  done.replace(value, done.find_first_of(",}", value) - value, "1e300");
  std::string reason;
  const auto message =
      parse_worker_message(done.substr(0, done.size() - 1), &reason);
  EXPECT_FALSE(message.has_value());
  EXPECT_NE(reason.find("total_cycles"), std::string::npos) << reason;
}

TEST(FleetProto, HostileWorkerLinesNeverThrow) {
  // The supervisor feeds every line a worker emits through this parser; any
  // of these crashing the coordinator would defeat process isolation.
  const std::vector<std::string> hostile = {
      "",
      "not json at all",
      "{",
      "[1,2,3]",
      "42",
      "\"a bare string\"",
      "null",
      "{}",
      R"({"type":12})",
      R"({"type":"unknown-kind"})",
      R"({"type":"done"})",
      R"({"type":"done","index":"zero","key":"k","wall":0,"report":{}})",
      R"({"type":"done","index":0,"key":"k","wall":0,"report":"garbage"})",
      R"({"type":"done","index":0,"key":"k","wall":0,"report":{"general":1}})",
      R"({"type":"done","index":-3,"key":"k","wall":0,"report":{}})",
      R"({"type":"failed","index":0})",
      R"({"type":"failed","index":0,"key":5,"error":"e"})",
      R"({"type":"hb","extra":)",
      std::string(1, '\0') + "binary",
      std::string(4096, '{'),
  };
  for (const std::string& line : hostile) {
    std::string reason;
    std::optional<WorkerMessage> message;
    ASSERT_NO_THROW(message = parse_worker_message(line, &reason))
        << "line: " << line.substr(0, 60);
    EXPECT_FALSE(message.has_value()) << "line: " << line.substr(0, 60);
    EXPECT_FALSE(reason.empty()) << "line: " << line.substr(0, 60);
  }
}

TEST(FleetProto, HostileCoordinatorLinesNeverThrow) {
  const std::vector<std::string> hostile = {
      "",
      "garbage",
      "{}",
      R"({"type":"job"})",
      R"({"type":"job","index":0,"attempt":0,"timeout":0,"job":null})",
      R"({"type":"job","index":0,"attempt":1,"timeout":0,"job":{"seed":[]}})",
      R"({"type":"shutdown","unexpected":"wrong shape"} extra)",
  };
  for (const std::string& line : hostile) {
    std::string reason;
    std::optional<WorkerCommand> command;
    ASSERT_NO_THROW(command = parse_worker_command(line, &reason))
        << "line: " << line;
    EXPECT_FALSE(command.has_value()) << "line: " << line;
    EXPECT_FALSE(reason.empty()) << "line: " << line;
  }
}

// --- The worker loop, driven in-process through stringstreams --------------

/// Splits captured worker output into lines, asserting every line is
/// newline-terminated (a worker must never emit a partial line and stop).
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    EXPECT_NE(end, std::string::npos)
        << "unterminated trailing output: " << text.substr(start, 60);
    if (end == std::string::npos) break;
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

WorkerConfig quiet_config() {
  WorkerConfig config;
  config.heartbeat_ms = 0;  // keep the output deterministic for assertions
  return config;
}

TEST(FleetWorkerLoop, RunsAJobAndReportsDone) {
  const DiscoveryJob job = resolved_job();
  std::istringstream in(encode_job_assignment(job, 0, 1, 0.0) +
                        encode_shutdown());
  std::ostringstream out;
  EXPECT_EQ(run_worker_loop(in, out, quiet_config()), 0);

  const auto lines = lines_of(out.str());
  ASSERT_GE(lines.size(), 2u);
  std::string reason;
  const auto ready = parse_worker_message(lines[0], &reason);
  ASSERT_TRUE(ready.has_value()) << reason;
  EXPECT_EQ(ready->type, WorkerMessage::Type::kReady);
  const auto done = parse_worker_message(lines[1], &reason);
  ASSERT_TRUE(done.has_value()) << reason;
  ASSERT_EQ(done->type, WorkerMessage::Type::kDone);
  EXPECT_EQ(done->index, 0u);
  EXPECT_EQ(done->key, job.key());
  EXPECT_EQ(core::to_json_string(done->report),
            core::to_json_string(run_job(job)));
}

TEST(FleetWorkerLoop, ClassifiesAPermanentFailure) {
  DiscoveryJob bad;
  bad.model = "NoSuchGPU";  // run_job -> std::out_of_range
  std::istringstream in(encode_job_assignment(bad, 1, 1, 0.0) +
                        encode_shutdown());
  std::ostringstream out;
  EXPECT_EQ(run_worker_loop(in, out, quiet_config()), 0);

  const auto lines = lines_of(out.str());
  ASSERT_GE(lines.size(), 2u);
  std::string reason;
  const auto failed = parse_worker_message(lines[1], &reason);
  ASSERT_TRUE(failed.has_value()) << reason;
  ASSERT_EQ(failed->type, WorkerMessage::Type::kFailed);
  EXPECT_EQ(failed->index, 1u);
  EXPECT_TRUE(failed->permanent)
      << "an unknown model must not be retried: " << failed->error;
  EXPECT_FALSE(failed->timed_out);
}

TEST(FleetWorkerLoop, GarbageStdinExitsWithCodeTwo) {
  std::istringstream in("this is not a protocol line\n");
  std::ostringstream out;
  EXPECT_EQ(run_worker_loop(in, out, quiet_config()), 2)
      << "a worker that cannot trust its stdin must say so and exit";
}

TEST(FleetWorkerLoop, EofBetweenJobsIsACleanExit) {
  std::istringstream in("");  // coordinator died before the first assignment
  std::ostringstream out;
  EXPECT_EQ(run_worker_loop(in, out, quiet_config()), 0);
}

}  // namespace
}  // namespace mt4g::fleet
