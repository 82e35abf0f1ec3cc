#include "core/output/report_io.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/json_parse.hpp"
#include "common/strings.hpp"

namespace mt4g::core {
namespace {

[[noreturn]] void malformed(const std::string& field,
                            const std::string& what) {
  throw std::runtime_error("report json: '" + field + "' " + what);
}

const json::Value& member(const json::Value& object, const std::string& key) {
  const json::Value* value = object.find(key);
  if (value == nullptr) malformed(key, "is missing");
  return *value;
}

const json::Value& object_member(const json::Value& object,
                                 const std::string& key) {
  const json::Value& value = member(object, key);
  if (!value.is_object()) malformed(key, "is not an object");
  return value;
}

const json::Array& array_of(const json::Value& value,
                            const std::string& field) {
  if (!value.is_array()) malformed(field, "is not an array");
  return value.as_array();
}

/// The one integer read: @p value as a T, if it is a non-negative integer
/// that fits one.
template <class T>
T count_of(const json::Value& value, const std::string& field) {
  if (!value.is_int() || value.as_int() < 0 ||
      static_cast<std::uint64_t>(value.as_int()) >
          std::numeric_limits<T>::max()) {
    malformed(field, "is not a non-negative integer in range");
  }
  return static_cast<T>(value.as_int());
}

/// count_of() of member @p key, 0 when absent or null.
template <class T>
T count_or_zero(const json::Value& object, const std::string& key) {
  const json::Value* value = object.find(key);
  if (value == nullptr || value->is_null()) return 0;
  return count_of<T>(*value, key);
}

double number_or(const json::Value& object, const std::string& key,
                 double fallback) {
  const json::Value* value = object.find(key);
  if (value == nullptr || value->is_null()) return fallback;
  if (!value->is_int() && !value->is_double()) {
    malformed(key, "is not a number");
  }
  return value->as_double();
}

std::string string_or(const json::Value& object, const std::string& key,
                      const std::string& fallback) {
  const json::Value* value = object.find(key);
  if (value == nullptr || !value->is_string()) return fallback;
  return value->as_string();
}

Provenance parse_provenance(const std::string& symbol) {
  if (symbol == "!") return Provenance::kBenchmark;
  if (symbol == "!(API)") return Provenance::kApi;
  if (symbol == "#") return Provenance::kUnavailable;
  return Provenance::kNotApplicable;
}

Attribute parse_attribute(const json::Value& object) {
  Attribute attribute;
  attribute.provenance =
      parse_provenance(string_or(object, "provenance", "n/a"));
  if (attribute.available()) {
    attribute.value = number_or(object, "value", 0.0);
    attribute.confidence = number_or(object, "confidence", 1.0);
  }
  attribute.note = string_or(object, "note", "");
  return attribute;
}

stats::Summary parse_summary(const json::Value& object) {
  stats::Summary summary;
  summary.count = count_or_zero<std::size_t>(object, "count");
  summary.mean = number_or(object, "mean", 0);
  summary.stddev = number_or(object, "stddev", 0);
  summary.min = number_or(object, "min", 0);
  summary.max = number_or(object, "max", 0);
  summary.p50 = number_or(object, "p50", 0);
  summary.p95 = number_or(object, "p95", 0);
  summary.p99 = number_or(object, "p99", 0);
  return summary;
}

}  // namespace

TopologyReport from_json_string(const std::string& text) {
  return from_json(json::parse_or_throw(text));
}

TopologyReport from_json(const json::Value& root) {
  if (!root.is_object()) {
    throw std::runtime_error("report json: document is not an object");
  }
  TopologyReport report;

  const json::Value& general = object_member(root, "general");
  report.general.gpu_name = string_or(general, "gpu", "");
  report.general.vendor = string_or(general, "vendor", "");
  report.general.model = string_or(general, "model", "");
  report.general.microarchitecture =
      string_or(general, "microarchitecture", "");
  report.general.compute_capability =
      string_or(general, "compute_capability", "");
  report.general.clock_mhz = number_or(general, "clock_mhz", 0);
  report.general.memory_clock_mhz = number_or(general, "memory_clock_mhz", 0);
  report.general.memory_bus_bits =
      count_or_zero<std::uint32_t>(general, "memory_bus_bits");

  const json::Value& compute = object_member(root, "compute");
  auto u32 = [&compute](const char* key) {
    return count_or_zero<std::uint32_t>(compute, key);
  };
  report.compute.num_sms = u32("num_sms");
  report.compute.cores_per_sm = u32("cores_per_sm");
  report.compute.num_cores_total = u32("num_cores_total");
  report.compute.warp_size = u32("warp_size");
  report.compute.warps_per_sm = u32("warps_per_sm");
  report.compute.max_threads_per_block = u32("max_threads_per_block");
  report.compute.max_threads_per_sm = u32("max_threads_per_sm");
  report.compute.max_blocks_per_sm = u32("max_blocks_per_sm");
  report.compute.regs_per_block = u32("regs_per_block");
  report.compute.regs_per_sm = u32("regs_per_sm");
  if (const json::Value* ids = compute.find("cu_physical_ids")) {
    for (const auto& id : array_of(*ids, "cu_physical_ids")) {
      report.compute.cu_physical_ids.push_back(
          count_of<std::uint32_t>(id, "cu_physical_ids"));
    }
  }

  for (const json::Value& row : array_of(member(root, "memory"), "memory")) {
    MemoryElementReport element;
    try {
      element.element = sim::parse_element(string_or(row, "element", "L1"));
    } catch (const std::invalid_argument& e) {
      malformed("element", e.what());
    }
    const auto attribute = [&row](const char* key) {
      return parse_attribute(object_member(row, key));
    };
    element.size = attribute("size_bytes");
    element.load_latency = attribute("load_latency_cycles");
    element.read_bandwidth = attribute("read_bandwidth_bytes_per_s");
    element.write_bandwidth = attribute("write_bandwidth_bytes_per_s");
    element.cache_line = attribute("cache_line_bytes");
    element.fetch_granularity = attribute("fetch_granularity_bytes");
    element.amount = attribute("amount");
    element.amount_per_gpu = string_or(row, "amount_scope", "") == "per_gpu";
    element.shared_with = string_or(row, "physically_shared_with", "");
    if (const json::Value* summary = row.find("latency_statistics")) {
      element.latency_stats = parse_summary(*summary);
    }
    report.memory.push_back(std::move(element));
  }

  if (const json::Value* sharing = root.find("sl1d_cu_sharing")) {
    const json::Value* available = sharing->find("available");
    if (available != nullptr && !available->is_bool()) {
      malformed("available", "is not a boolean");
    }
    report.cu_sharing.available = available != nullptr && available->as_bool();
    report.cu_sharing.unavailable_reason = string_or(*sharing, "reason", "");
    if (const json::Value* groups = sharing->find("groups")) {
      for (const auto& entry : array_of(*groups, "groups")) {
        const auto cu = count_of<std::uint32_t>(member(entry, "cu"), "cu");
        std::vector<std::uint32_t> peers;
        for (const auto& peer : array_of(member(entry, "shares_sl1d_with"),
                                         "shares_sl1d_with")) {
          peers.push_back(count_of<std::uint32_t>(peer, "shares_sl1d_with"));
        }
        report.cu_sharing.peers[cu] = std::move(peers);
      }
    }
  }

  if (const json::Value* throughput = root.find("compute_throughput")) {
    for (const auto& entry : array_of(*throughput, "compute_throughput")) {
      ComputeThroughputReport row;
      row.dtype = string_or(entry, "dtype", "");
      row.achieved_ops_per_s = number_or(entry, "achieved_ops_per_s", 0);
      row.blocks = count_or_zero<std::uint32_t>(entry, "blocks");
      row.threads_per_block =
          count_or_zero<std::uint32_t>(entry, "threads_per_block");
      report.compute_throughput.push_back(std::move(row));
    }
  }

  const json::Value& meta = object_member(root, "meta");
  report.benchmarks_executed =
      count_or_zero<std::uint32_t>(meta, "benchmarks_executed");
  report.simulated_seconds = number_or(meta, "simulated_seconds", 0);
  report.sweep_widenings =
      count_or_zero<std::uint32_t>(meta, "sweep_widenings");
  report.total_cycles = count_or_zero<std::uint64_t>(meta, "total_cycles");
  report.chase_memo_hits =
      count_or_zero<std::uint64_t>(meta, "chase_memo_hits");
  report.chase_memo_misses =
      count_or_zero<std::uint64_t>(meta, "chase_memo_misses");
  report.critical_path_cycles =
      count_or_zero<std::uint64_t>(meta, "critical_path_cycles");
  if (const json::Value* stages = meta.find("stage_cycles")) {
    for (const auto& entry : array_of(*stages, "stage_cycles")) {
      StageCycleReport stage;
      stage.stage = string_or(entry, "stage", "");
      stage.cycles = count_or_zero<std::uint64_t>(entry, "cycles");
      stage.wall_seconds = number_or(entry, "wall_seconds", 0);
      stage.reset_seconds = number_or(entry, "reset_seconds", 0);
      report.stage_cycles.push_back(std::move(stage));
    }
  }
  if (const json::Value* wall = meta.find("wall")) {
    report.wall.enabled = true;
    report.wall.wall_seconds = number_or(*wall, "wall_seconds", 0);
    if (const json::Value* samples = wall->find("samples")) {
      for (const auto& entry : array_of(*samples, "samples")) {
        WallMetricSample sample;
        sample.name = string_or(entry, "name", "");
        sample.kind = string_or(entry, "kind", "counter");
        sample.value = number_or(entry, "value", 0);
        sample.count = count_or_zero<std::uint64_t>(entry, "count");
        report.wall.samples.push_back(std::move(sample));
      }
    }
  }
  return report;
}

namespace {

void diff_attribute(std::vector<ReportDifference>& out,
                    const std::string& element, const std::string& name,
                    const Attribute& lhs, const Attribute& rhs, bool discrete,
                    double tolerance) {
  if (lhs.provenance != rhs.provenance) {
    out.push_back({element, name + ".provenance",
                   provenance_symbol(lhs.provenance),
                   provenance_symbol(rhs.provenance)});
    return;
  }
  if (!lhs.available()) return;
  bool equal = false;
  if (discrete) {
    equal = static_cast<std::int64_t>(lhs.value) ==
            static_cast<std::int64_t>(rhs.value);
  } else {
    const double scale = std::max(std::fabs(lhs.value), std::fabs(rhs.value));
    equal = scale == 0.0 ||
            std::fabs(lhs.value - rhs.value) <= tolerance * scale;
  }
  if (!equal) {
    out.push_back({element, name, format_double(lhs.value, 2),
                   format_double(rhs.value, 2)});
  }
}

}  // namespace

std::vector<ReportDifference> diff_reports(const TopologyReport& lhs,
                                           const TopologyReport& rhs,
                                           const DiffOptions& options) {
  std::vector<ReportDifference> out;
  if (lhs.general.gpu_name != rhs.general.gpu_name) {
    out.push_back({"general", "gpu", lhs.general.gpu_name,
                   rhs.general.gpu_name});
  }
  if (lhs.general.vendor != rhs.general.vendor) {
    out.push_back({"general", "vendor", lhs.general.vendor,
                   rhs.general.vendor});
  }
  if (lhs.compute.num_sms != rhs.compute.num_sms) {
    out.push_back({"compute", "num_sms", std::to_string(lhs.compute.num_sms),
                   std::to_string(rhs.compute.num_sms)});
  }
  if (lhs.compute.warp_size != rhs.compute.warp_size) {
    out.push_back({"compute", "warp_size",
                   std::to_string(lhs.compute.warp_size),
                   std::to_string(rhs.compute.warp_size)});
  }

  for (const auto& row : lhs.memory) {
    const std::string name = sim::element_name(row.element);
    const MemoryElementReport* other = rhs.find(row.element);
    if (other == nullptr) {
      out.push_back({name, "presence", "present", "missing"});
      continue;
    }
    const double tol = options.continuous_tolerance;
    diff_attribute(out, name, "size", row.size, other->size,
                   /*discrete=*/true, tol);
    diff_attribute(out, name, "load_latency", row.load_latency,
                   other->load_latency, false, tol);
    diff_attribute(out, name, "read_bandwidth", row.read_bandwidth,
                   other->read_bandwidth, false, tol);
    diff_attribute(out, name, "write_bandwidth", row.write_bandwidth,
                   other->write_bandwidth, false, tol);
    diff_attribute(out, name, "cache_line", row.cache_line, other->cache_line,
                   true, tol);
    diff_attribute(out, name, "fetch_granularity", row.fetch_granularity,
                   other->fetch_granularity, true, tol);
    diff_attribute(out, name, "amount", row.amount, other->amount, true, tol);
    if (row.shared_with != other->shared_with) {
      out.push_back({name, "shared_with", row.shared_with,
                     other->shared_with});
    }
  }
  for (const auto& row : rhs.memory) {
    if (lhs.find(row.element) == nullptr) {
      out.push_back({sim::element_name(row.element), "presence", "missing",
                     "present"});
    }
  }
  return out;
}

}  // namespace mt4g::core
