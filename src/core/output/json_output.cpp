#include "core/output/json_output.hpp"

namespace mt4g::core {
namespace {

json::Value attribute_to_json(const Attribute& attribute, bool integral) {
  json::Object object;
  object.emplace_back("provenance", provenance_symbol(attribute.provenance));
  if (attribute.available()) {
    if (integral) {
      object.emplace_back("value",
                          static_cast<std::int64_t>(attribute.value));
    } else {
      object.emplace_back("value", attribute.value);
    }
    object.emplace_back("confidence", attribute.confidence);
  }
  if (!attribute.note.empty()) object.emplace_back("note", attribute.note);
  return json::Value(std::move(object));
}

json::Value summary_to_json(const stats::Summary& summary) {
  json::Object object;
  object.emplace_back("count", static_cast<std::int64_t>(summary.count));
  object.emplace_back("mean", summary.mean);
  object.emplace_back("stddev", summary.stddev);
  object.emplace_back("min", summary.min);
  object.emplace_back("max", summary.max);
  object.emplace_back("p50", summary.p50);
  object.emplace_back("p95", summary.p95);
  object.emplace_back("p99", summary.p99);
  return json::Value(std::move(object));
}

}  // namespace

json::Value to_json(const TopologyReport& report) {
  json::Object root;

  json::Object general;
  general.emplace_back("gpu", report.general.gpu_name);
  general.emplace_back("vendor", report.general.vendor);
  general.emplace_back("model", report.general.model);
  general.emplace_back("microarchitecture",
                       report.general.microarchitecture);
  general.emplace_back("compute_capability",
                       report.general.compute_capability);
  general.emplace_back("clock_mhz", report.general.clock_mhz);
  general.emplace_back("memory_clock_mhz", report.general.memory_clock_mhz);
  general.emplace_back("memory_bus_bits",
                       static_cast<std::int64_t>(report.general.memory_bus_bits));
  root.emplace_back("general", json::Value(std::move(general)));

  json::Object compute;
  compute.emplace_back("num_sms", static_cast<std::int64_t>(report.compute.num_sms));
  compute.emplace_back("cores_per_sm",
                       static_cast<std::int64_t>(report.compute.cores_per_sm));
  compute.emplace_back("num_cores_total",
                       static_cast<std::int64_t>(report.compute.num_cores_total));
  compute.emplace_back("warp_size",
                       static_cast<std::int64_t>(report.compute.warp_size));
  compute.emplace_back("warps_per_sm",
                       static_cast<std::int64_t>(report.compute.warps_per_sm));
  compute.emplace_back("max_threads_per_block",
                       static_cast<std::int64_t>(report.compute.max_threads_per_block));
  compute.emplace_back("max_threads_per_sm",
                       static_cast<std::int64_t>(report.compute.max_threads_per_sm));
  compute.emplace_back("max_blocks_per_sm",
                       static_cast<std::int64_t>(report.compute.max_blocks_per_sm));
  compute.emplace_back("regs_per_block",
                       static_cast<std::int64_t>(report.compute.regs_per_block));
  compute.emplace_back("regs_per_sm",
                       static_cast<std::int64_t>(report.compute.regs_per_sm));
  if (!report.compute.cu_physical_ids.empty()) {
    json::Array ids;
    for (std::uint32_t id : report.compute.cu_physical_ids) {
      ids.emplace_back(static_cast<std::int64_t>(id));
    }
    compute.emplace_back("cu_physical_ids", json::Value(std::move(ids)));
  }
  root.emplace_back("compute", json::Value(std::move(compute)));

  json::Array memory;
  for (const auto& row : report.memory) {
    json::Object element;
    element.emplace_back("element", sim::element_name(row.element));
    element.emplace_back("size_bytes", attribute_to_json(row.size, true));
    element.emplace_back("load_latency_cycles",
                         attribute_to_json(row.load_latency, false));
    element.emplace_back("read_bandwidth_bytes_per_s",
                         attribute_to_json(row.read_bandwidth, false));
    element.emplace_back("write_bandwidth_bytes_per_s",
                         attribute_to_json(row.write_bandwidth, false));
    element.emplace_back("cache_line_bytes",
                         attribute_to_json(row.cache_line, true));
    element.emplace_back("fetch_granularity_bytes",
                         attribute_to_json(row.fetch_granularity, true));
    element.emplace_back("amount", attribute_to_json(row.amount, true));
    element.emplace_back("amount_scope",
                         row.amount_per_gpu ? "per_gpu" : "per_sm");
    if (!row.shared_with.empty()) {
      element.emplace_back("physically_shared_with", row.shared_with);
    }
    if (row.latency_stats.count > 0) {
      element.emplace_back("latency_statistics",
                           summary_to_json(row.latency_stats));
    }
    memory.emplace_back(std::move(element));
  }
  root.emplace_back("memory", json::Value(std::move(memory)));

  if (report.general.vendor == "AMD") {
    json::Object sharing;
    sharing.emplace_back("available", report.cu_sharing.available);
    if (!report.cu_sharing.unavailable_reason.empty()) {
      sharing.emplace_back("reason", report.cu_sharing.unavailable_reason);
    }
    json::Array groups;
    for (const auto& [cu, peers] : report.cu_sharing.peers) {
      json::Object entry;
      entry.emplace_back("cu", static_cast<std::int64_t>(cu));
      json::Array peer_ids;
      for (std::uint32_t peer : peers) {
        peer_ids.emplace_back(static_cast<std::int64_t>(peer));
      }
      entry.emplace_back("shares_sl1d_with", json::Value(std::move(peer_ids)));
      groups.emplace_back(std::move(entry));
    }
    sharing.emplace_back("groups", json::Value(std::move(groups)));
    root.emplace_back("sl1d_cu_sharing", json::Value(std::move(sharing)));
  }

  if (!report.compute_throughput.empty()) {
    json::Array throughput;
    for (const auto& entry : report.compute_throughput) {
      json::Object row;
      row.emplace_back("dtype", entry.dtype);
      row.emplace_back("achieved_ops_per_s", entry.achieved_ops_per_s);
      row.emplace_back("blocks", static_cast<std::int64_t>(entry.blocks));
      row.emplace_back("threads_per_block",
                       static_cast<std::int64_t>(entry.threads_per_block));
      throughput.emplace_back(std::move(row));
    }
    root.emplace_back("compute_throughput", json::Value(std::move(throughput)));
  }

  json::Object meta;
  meta.emplace_back("benchmarks_executed",
                    static_cast<std::int64_t>(report.benchmarks_executed));
  meta.emplace_back("simulated_seconds", report.simulated_seconds);
  meta.emplace_back("sweep_widenings",
                    static_cast<std::int64_t>(report.sweep_widenings));
  meta.emplace_back("total_cycles",
                    static_cast<std::int64_t>(report.total_cycles));
  meta.emplace_back("chase_memo_hits",
                    static_cast<std::int64_t>(report.chase_memo_hits));
  meta.emplace_back("chase_memo_misses",
                    static_cast<std::int64_t>(report.chase_memo_misses));
  meta.emplace_back("critical_path_cycles",
                    static_cast<std::int64_t>(report.critical_path_cycles));
  if (!report.stage_cycles.empty()) {
    json::Array stages;
    for (const auto& stage : report.stage_cycles) {
      json::Object entry;
      entry.emplace_back("stage", stage.stage);
      entry.emplace_back("cycles", static_cast<std::int64_t>(stage.cycles));
      // Wall time is per-run data: emitted only for opt-in observability
      // runs so default reports stay byte-identical (see WallMetricsReport).
      if (report.wall.enabled) {
        entry.emplace_back("wall_seconds", stage.wall_seconds);
        entry.emplace_back("reset_seconds", stage.reset_seconds);
      }
      stages.emplace_back(std::move(entry));
    }
    meta.emplace_back("stage_cycles", json::Value(std::move(stages)));
  }
  if (report.wall.enabled) {
    json::Object wall;
    wall.emplace_back("wall_seconds", report.wall.wall_seconds);
    json::Array samples;
    for (const auto& sample : report.wall.samples) {
      json::Object entry;
      entry.emplace_back("name", sample.name);
      entry.emplace_back("kind", sample.kind);
      entry.emplace_back("value", sample.value);
      if (sample.count > 0) {
        entry.emplace_back("count", static_cast<std::int64_t>(sample.count));
      }
      samples.emplace_back(std::move(entry));
    }
    wall.emplace_back("samples", json::Value(std::move(samples)));
    meta.emplace_back("wall", json::Value(std::move(wall)));
  }
  root.emplace_back("meta", json::Value(std::move(meta)));
  return json::Value(std::move(root));
}

std::string to_json_string(const TopologyReport& report) {
  return to_json(report).dump();
}

}  // namespace mt4g::core
