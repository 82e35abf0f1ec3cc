#include "fleet/proto.hpp"

#include <cstdlib>
#include <stdexcept>

#include "common/json_parse.hpp"
#include "core/output/json_output.hpp"
#include "core/output/report_io.hpp"
#include "sim/spec_io.hpp"

namespace mt4g::fleet {
namespace {

std::string hex16(std::uint64_t h) {
  static const char digits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xF];
    h >>= 4;
  }
  return out;
}

/// Required object member with a type check; throws std::invalid_argument
/// naming the missing/mistyped field — job_from_json's diagnostic contract.
const json::Value& need(const json::Value& doc, const char* key,
                        bool (json::Value::*is)() const, const char* type) {
  const json::Value* value = doc.find(key);
  if (value == nullptr || !(value->*is)()) {
    throw std::invalid_argument(std::string("job record: missing or non-") +
                                type + " '" + key + "'");
  }
  return *value;
}

std::uint64_t parse_u64(const std::string& text, int base, const char* what) {
  if (text.empty()) {
    throw std::invalid_argument(std::string("job record: empty ") + what);
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, base);
  if (end == text.c_str() || *end != '\0') {
    throw std::invalid_argument(std::string("job record: unparseable ") +
                                what + " '" + text + "'");
  }
  return static_cast<std::uint64_t>(parsed);
}

/// Dumps @p message as one protocol line: compact JSON + terminating newline.
std::string line(json::Object message) {
  return json::Value(std::move(message)).dump(-1, /*exact=*/true) + "\n";
}

/// Shared head of parse_worker_command / parse_worker_message: JSON-parses
/// one line into an object and extracts its "type". Sets @p reason and
/// returns nullptr on any corruption.
const json::Value* parse_line(const std::string& text, json::ParseResult& slot,
                              std::string& type, std::string* reason) {
  slot = json::parse(text);
  if (!slot.ok()) {
    if (reason) *reason = "not valid JSON: " + slot.error.message;
    return nullptr;
  }
  const json::Value& doc = *slot.value;
  if (!doc.is_object()) {
    if (reason) *reason = "record is not a JSON object";
    return nullptr;
  }
  const json::Value* type_value = doc.find("type");
  if (type_value == nullptr || !type_value->is_string()) {
    if (reason) *reason = "record has no string 'type'";
    return nullptr;
  }
  type = type_value->as_string();
  return &doc;
}

/// Non-negative integer field; false + reason on absence or wrong type.
bool read_index(const json::Value& doc, std::size_t& out,
                std::string* reason) {
  const json::Value* index = doc.find("index");
  if (index == nullptr || !index->is_int() || index->as_int() < 0) {
    if (reason) *reason = "record has no non-negative integer 'index'";
    return false;
  }
  out = static_cast<std::size_t>(index->as_int());
  return true;
}

double read_wall(const json::Value& doc) {
  const json::Value* wall = doc.find("wall");
  if (wall != nullptr && (wall->is_double() || wall->is_int())) {
    return wall->as_double();
  }
  return 0.0;
}

}  // namespace

json::Value job_to_json(const DiscoveryJob& job) {
  json::Object options;
  json::Array only;
  for (const sim::Element element : job.options.only) {
    only.emplace_back(sim::element_name(element));
  }
  options.emplace_back("only", std::move(only));
  options.emplace_back("series", job.options.collect_series);
  options.emplace_back("compute", job.options.measure_compute);
  options.emplace_back("sweep_threads", job.options.sweep_threads);
  options.emplace_back("bench_threads", job.options.bench_threads);

  json::Object doc;
  doc.emplace_back("model", job.model);
  // Seeds and hashes are 64-bit; json ints are int64 — decimal/hex strings
  // keep the full range portable.
  doc.emplace_back("seed", std::to_string(job.seed));
  doc.emplace_back("mig", job.mig_profile);
  doc.emplace_back("config", job.cache_config);
  doc.emplace_back("options", std::move(options));
  std::uint64_t spec_hash = job.spec_hash;
  if (spec_hash == 0 && job.spec) {
    spec_hash = sim::spec_content_hash(*job.spec);
  }
  doc.emplace_back("spec_hash", spec_hash == 0 ? "-" : hex16(spec_hash));
  if (job.spec) {
    // The canonical spec travels as an opaque STRING, not a JSON subtree:
    // the worker reads back exactly the text spec files and content hashes
    // use. Strings pass through the dump byte-exactly.
    doc.emplace_back("spec", sim::spec_to_json(*job.spec));
  } else {
    doc.emplace_back("spec", nullptr);
  }
  return json::Value(std::move(doc));
}

DiscoveryJob job_from_json(const json::Value& doc) {
  if (!doc.is_object()) {
    throw std::invalid_argument("job record is not a JSON object");
  }
  DiscoveryJob job;
  job.model = need(doc, "model", &json::Value::is_string, "string").as_string();
  job.seed =
      parse_u64(need(doc, "seed", &json::Value::is_string, "string").as_string(),
                10, "seed");
  job.mig_profile =
      need(doc, "mig", &json::Value::is_string, "string").as_string();
  job.cache_config =
      need(doc, "config", &json::Value::is_string, "string").as_string();

  const json::Value& options =
      need(doc, "options", &json::Value::is_object, "object");
  const json::Value& only =
      need(options, "only", &json::Value::is_array, "array");
  for (const json::Value& element : only.as_array()) {
    if (!element.is_string()) {
      throw std::invalid_argument("job record: options.only holds a "
                                  "non-string element");
    }
    job.options.only.push_back(sim::parse_element(element.as_string()));
  }
  job.options.collect_series =
      need(options, "series", &json::Value::is_bool, "bool").as_bool();
  job.options.measure_compute =
      need(options, "compute", &json::Value::is_bool, "bool").as_bool();
  const auto count = [&](const char* key) {
    const json::Value& value = need(options, key, &json::Value::is_int, "int");
    if (value.as_int() < 0 || value.as_int() > (1 << 30)) {
      throw std::invalid_argument(std::string("job record: options.") + key +
                                  " out of range");
    }
    return static_cast<std::uint32_t>(value.as_int());
  };
  job.options.sweep_threads = count("sweep_threads");
  job.options.bench_threads = count("bench_threads");

  const std::string hash_text =
      need(doc, "spec_hash", &json::Value::is_string, "string").as_string();
  if (hash_text != "-") job.spec_hash = parse_u64(hash_text, 16, "spec_hash");

  const json::Value* spec = doc.find("spec");
  if (spec == nullptr) {
    throw std::invalid_argument("job record: missing 'spec'");
  }
  if (!spec->is_null()) {
    if (!spec->is_string()) {
      throw std::invalid_argument(
          "job record: 'spec' must be a canonical spec-JSON string or null");
    }
    try {
      const json::ParseResult parsed = json::parse(spec->as_string());
      if (!parsed.ok()) {
        throw std::invalid_argument(parsed.error.message);
      }
      job.spec = std::make_shared<const sim::GpuSpec>(
          sim::spec_from_json(*parsed.value));
    } catch (const std::exception& e) {
      throw std::invalid_argument(std::string("job record: bad spec: ") +
                                  e.what());
    }
  }
  return job;
}

std::string encode_job_assignment(const DiscoveryJob& job, std::size_t index,
                                  std::uint32_t attempt,
                                  double timeout_seconds) {
  json::Object message;
  message.emplace_back("type", "job");
  message.emplace_back("index", static_cast<std::uint64_t>(index));
  message.emplace_back("attempt", attempt);
  message.emplace_back("timeout", timeout_seconds);
  message.emplace_back("job", job_to_json(job));
  return line(std::move(message));
}

std::string encode_shutdown() {
  json::Object message;
  message.emplace_back("type", "shutdown");
  return line(std::move(message));
}

std::optional<WorkerCommand> parse_worker_command(const std::string& text,
                                                  std::string* reason) {
  json::ParseResult slot;
  std::string type;
  const json::Value* doc = parse_line(text, slot, type, reason);
  if (doc == nullptr) return std::nullopt;

  WorkerCommand command;
  if (type == "shutdown") {
    command.type = WorkerCommand::Type::kShutdown;
    return command;
  }
  if (type != "job") {
    if (reason) *reason = "unknown command type '" + type + "'";
    return std::nullopt;
  }
  command.type = WorkerCommand::Type::kJob;
  if (!read_index(*doc, command.index, reason)) return std::nullopt;
  const json::Value* attempt = doc->find("attempt");
  if (attempt == nullptr || !attempt->is_int() || attempt->as_int() < 1) {
    if (reason) *reason = "job command has no positive integer 'attempt'";
    return std::nullopt;
  }
  command.attempt = static_cast<std::uint32_t>(attempt->as_int());
  const json::Value* timeout = doc->find("timeout");
  if (timeout != nullptr && (timeout->is_double() || timeout->is_int())) {
    command.timeout_seconds = timeout->as_double();
  }
  const json::Value* job = doc->find("job");
  if (job == nullptr) {
    if (reason) *reason = "job command has no 'job'";
    return std::nullopt;
  }
  try {
    command.job = job_from_json(*job);
  } catch (const std::exception& e) {
    if (reason) *reason = e.what();
    return std::nullopt;
  }
  return command;
}

std::string encode_ready() {
  json::Object message;
  message.emplace_back("type", "ready");
  return line(std::move(message));
}

std::string encode_heartbeat() {
  json::Object message;
  message.emplace_back("type", "hb");
  return line(std::move(message));
}

std::string encode_done(std::size_t index, const std::string& key,
                        const core::TopologyReport& report,
                        double wall_seconds) {
  json::Object message;
  message.emplace_back("type", "done");
  message.emplace_back("index", static_cast<std::uint64_t>(index));
  message.emplace_back("key", key);
  message.emplace_back("wall", wall_seconds);
  message.emplace_back("report", core::to_json(report));
  return line(std::move(message));
}

std::string encode_failed(std::size_t index, const std::string& key,
                          const std::string& error, bool timed_out,
                          bool permanent, double wall_seconds) {
  json::Object message;
  message.emplace_back("type", "failed");
  message.emplace_back("index", static_cast<std::uint64_t>(index));
  message.emplace_back("key", key);
  message.emplace_back("error", error);
  message.emplace_back("timed_out", timed_out);
  message.emplace_back("permanent", permanent);
  message.emplace_back("wall", wall_seconds);
  return line(std::move(message));
}

std::optional<WorkerMessage> parse_worker_message(const std::string& text,
                                                  std::string* reason) {
  json::ParseResult slot;
  std::string type;
  const json::Value* doc = parse_line(text, slot, type, reason);
  if (doc == nullptr) return std::nullopt;

  WorkerMessage message;
  if (type == "ready") {
    message.type = WorkerMessage::Type::kReady;
    return message;
  }
  if (type == "hb") {
    message.type = WorkerMessage::Type::kHeartbeat;
    return message;
  }
  if (type != "done" && type != "failed") {
    if (reason) *reason = "unknown worker message type '" + type + "'";
    return std::nullopt;
  }

  if (!read_index(*doc, message.index, reason)) return std::nullopt;
  const json::Value* key = doc->find("key");
  if (key == nullptr || !key->is_string()) {
    if (reason) *reason = "worker record has no string 'key'";
    return std::nullopt;
  }
  message.key = key->as_string();
  message.wall_seconds = read_wall(*doc);

  if (type == "failed") {
    message.type = WorkerMessage::Type::kFailed;
    const json::Value* error = doc->find("error");
    if (error == nullptr || !error->is_string()) {
      if (reason) *reason = "failed record has no string 'error'";
      return std::nullopt;
    }
    message.error = error->as_string();
    const json::Value* timed_out = doc->find("timed_out");
    message.timed_out =
        timed_out != nullptr && timed_out->is_bool() && timed_out->as_bool();
    const json::Value* permanent = doc->find("permanent");
    message.permanent =
        permanent != nullptr && permanent->is_bool() && permanent->as_bool();
    return message;
  }

  message.type = WorkerMessage::Type::kDone;
  const json::Value* report = doc->find("report");
  if (report == nullptr || !report->is_object()) {
    if (reason) *reason = "done record has no object 'report'";
    return std::nullopt;
  }
  try {
    message.report = core::from_json(*report);
  } catch (const std::exception& e) {
    if (reason) {
      *reason = std::string("done record carries an unreadable report: ") +
                e.what();
    }
    return std::nullopt;
  }
  return message;
}

}  // namespace mt4g::fleet
