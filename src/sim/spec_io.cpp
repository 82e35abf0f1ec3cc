#include "sim/spec_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <set>
#include <sstream>

#include "common/json_parse.hpp"
#include "common/strings.hpp"

namespace mt4g::sim {
namespace {

constexpr char kSchemaId[] = "mt4g-gpu-spec/v1";

// --- canonical emitter -------------------------------------------------------

// Shortest text that strtod() parses back to exactly @p v. The report
// serialiser's %.10g is fine for measured values but would corrupt spec
// constants like 4/7 (MIG bandwidth fractions) on a file round-trip.
std::string exact_double(double v) {
  char buf[40];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  std::string text(buf, result.ptr);
  // Keep a float marker so the document shows the field's type.
  if (text.find_first_of(".eEnN") == std::string::npos) text += ".0";
  return text;
}

std::string quoted(const std::string& raw) {
  return '"' + json::escape(raw) + '"';
}

/// Canonical-form writer: fixed 2-space indent, every field emitted.
class SpecWriter {
 public:
  std::string take() { return std::move(out_); }

  void open(const std::string& bracket) {
    line(bracket);
    ++depth_;
  }
  void close(const std::string& bracket, bool comma = false) {
    --depth_;
    line(bracket + (comma ? "," : ""));
  }
  void field(const std::string& key, const std::string& literal, bool comma) {
    line(quoted(key) + ": " + literal + (comma ? "," : ""));
  }
  void field_open(const std::string& key, const std::string& bracket) {
    line(quoted(key) + ": " + bracket);
    ++depth_;
  }
  void line(const std::string& text) {
    out_.append(static_cast<std::size_t>(depth_) * 2, ' ');
    out_ += text;
    out_ += '\n';
  }

 private:
  std::string out_;
  int depth_ = 0;
};

std::string cu_id_list(const std::vector<std::uint32_t>& ids) {
  std::string out = "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(ids[i]);
  }
  return out + "]";
}

void emit_element(SpecWriter& w, const ElementSpec& e, bool comma) {
  w.field("size_bytes", std::to_string(e.size_bytes), true);
  w.field("line_bytes", std::to_string(e.line_bytes), true);
  w.field("sector_bytes", std::to_string(e.sector_bytes), true);
  w.field("associativity", std::to_string(e.associativity), true);
  w.field("latency_cycles", exact_double(e.latency_cycles), true);
  w.field("amount", std::to_string(e.amount), true);
  w.field("per_sm", e.per_sm ? "true" : "false", true);
  w.field("physical_group", std::to_string(e.physical_group), true);
  w.field("size_from_api", e.size_from_api ? "true" : "false", true);
  w.field("line_from_api", e.line_from_api ? "true" : "false", true);
  w.field("amount_from_api", e.amount_from_api ? "true" : "false", true);
  w.field("read_bw_bytes_per_s", exact_double(e.read_bw_bytes_per_s), true);
  w.field("write_bw_bytes_per_s", exact_double(e.write_bw_bytes_per_s), false);
  w.close("}", comma);
}

// --- parsing helpers ---------------------------------------------------------

/// Field extraction over one JSON object with error accumulation. Every
/// getter records a diagnostic and returns the fallback on mismatch, so one
/// pass reports all problems of a document at once.
class ObjectReader {
 public:
  ObjectReader(const json::Value& value, std::string context,
               std::vector<std::string>& errors)
      : value_(value), context_(std::move(context)), errors_(errors) {
    if (!value_.is_object()) {
      error("must be a JSON object");
      ok_ = false;
    }
  }

  bool ok() const { return ok_; }

  const json::Value* get(const std::string& key, bool required) {
    seen_.insert(key);
    if (!ok_) return nullptr;
    const json::Value* found = value_.find(key);
    if (!found && required) error("missing required field '" + key + "'");
    return found;
  }

  std::string get_string(const std::string& key, bool required,
                         std::string fallback = {}) {
    const json::Value* v = get(key, required);
    if (!v) return fallback;
    if (!v->is_string()) {
      error("field '" + key + "' must be a string");
      return fallback;
    }
    return v->as_string();
  }

  std::uint64_t get_u64(const std::string& key, bool required,
                        std::uint64_t fallback = 0) {
    const json::Value* v = get(key, required);
    if (!v) return fallback;
    if (!v->is_int() || v->as_int() < 0) {
      error("field '" + key + "' must be a non-negative integer");
      return fallback;
    }
    return static_cast<std::uint64_t>(v->as_int());
  }

  std::uint32_t get_u32(const std::string& key, bool required,
                        std::uint32_t fallback = 0) {
    const std::uint64_t wide = get_u64(key, required, fallback);
    if (wide > 0xFFFFFFFFULL) {
      error("field '" + key + "' exceeds the 32-bit range");
      return fallback;
    }
    return static_cast<std::uint32_t>(wide);
  }

  double get_double(const std::string& key, bool required,
                    double fallback = 0.0) {
    const json::Value* v = get(key, required);
    if (!v) return fallback;
    if (!v->is_int() && !v->is_double()) {
      error("field '" + key + "' must be a number");
      return fallback;
    }
    return v->as_double();
  }

  bool get_bool(const std::string& key, bool fallback) {
    const json::Value* v = get(key, /*required=*/false);
    if (!v) return fallback;
    if (!v->is_bool()) {
      error("field '" + key + "' must be a boolean");
      return fallback;
    }
    return v->as_bool();
  }

  /// Call once after all getters: rejects misspelled / unsupported keys.
  void reject_unknown_keys() {
    if (!ok_) return;
    for (const auto& [key, unused] : value_.as_object()) {
      if (seen_.count(key) == 0) {
        error("unknown field '" + key + "' (misspelled? see the spec schema "
              "in README.md)");
      }
    }
  }

  void error(const std::string& message) {
    errors_.push_back(context_ + ": " + message);
  }

 private:
  const json::Value& value_;
  std::string context_;
  std::vector<std::string>& errors_;
  std::set<std::string> seen_;
  bool ok_ = true;
};

ElementSpec parse_element_spec(const json::Value& value,
                               const std::string& context,
                               std::vector<std::string>& errors) {
  ElementSpec e;
  ObjectReader r(value, context, errors);
  e.size_bytes = r.get_u64("size_bytes", /*required=*/true);
  e.line_bytes = r.get_u32("line_bytes", false, e.line_bytes);
  e.sector_bytes = r.get_u32("sector_bytes", false, e.sector_bytes);
  e.associativity = r.get_u32("associativity", false, e.associativity);
  e.latency_cycles = r.get_double("latency_cycles", true);
  e.amount = r.get_u32("amount", false, e.amount);
  e.per_sm = r.get_bool("per_sm", e.per_sm);
  e.physical_group = r.get_u32("physical_group", false, e.physical_group);
  e.size_from_api = r.get_bool("size_from_api", e.size_from_api);
  e.line_from_api = r.get_bool("line_from_api", e.line_from_api);
  e.amount_from_api = r.get_bool("amount_from_api", e.amount_from_api);
  e.read_bw_bytes_per_s =
      r.get_double("read_bw_bytes_per_s", false, e.read_bw_bytes_per_s);
  e.write_bw_bytes_per_s =
      r.get_double("write_bw_bytes_per_s", false, e.write_bw_bytes_per_s);
  r.reject_unknown_keys();
  return e;
}

MigProfile parse_mig_profile(const json::Value& value,
                             const std::string& context,
                             std::vector<std::string>& errors) {
  MigProfile p;
  ObjectReader r(value, context, errors);
  p.name = r.get_string("name", /*required=*/true);
  p.sm_count = r.get_u32("sm_count", true);
  p.l2_bytes = r.get_u64("l2_bytes", true);
  p.mem_bytes = r.get_u64("mem_bytes", true);
  p.bandwidth_fraction =
      r.get_double("bandwidth_fraction", false, p.bandwidth_fraction);
  r.reject_unknown_keys();
  return p;
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

std::string SpecError::join(const std::vector<std::string>& details) {
  std::string out;
  for (const auto& detail : details) {
    if (!out.empty()) out += '\n';
    out += detail;
  }
  return out.empty() ? std::string("invalid GPU spec") : out;
}

std::string spec_to_json(const GpuSpec& spec) {
  SpecWriter w;
  w.open("{");
  w.field("schema", quoted(kSchemaId), true);
  w.field("name", quoted(spec.name), true);
  w.field("model", quoted(spec.model), true);
  w.field("microarchitecture", quoted(spec.microarchitecture), true);
  w.field("vendor", quoted(vendor_name(spec.vendor)), true);
  w.field("compute_capability", quoted(spec.compute_capability), true);
  w.field("clock_mhz", exact_double(spec.clock_mhz), true);
  w.field("memory_clock_mhz", exact_double(spec.memory_clock_mhz), true);
  w.field("memory_bus_bits", std::to_string(spec.memory_bus_bits), true);
  w.field("num_sms", std::to_string(spec.num_sms), true);
  w.field("cores_per_sm", std::to_string(spec.cores_per_sm), true);
  w.field("warp_size", std::to_string(spec.warp_size), true);
  w.field("max_threads_per_block", std::to_string(spec.max_threads_per_block),
          true);
  w.field("max_threads_per_sm", std::to_string(spec.max_threads_per_sm), true);
  w.field("max_blocks_per_sm", std::to_string(spec.max_blocks_per_sm), true);
  w.field("regs_per_block", std::to_string(spec.regs_per_block), true);
  w.field("regs_per_sm", std::to_string(spec.regs_per_sm), true);
  w.field("xcd_count", std::to_string(spec.xcd_count), true);
  w.field("sl1d_group_size", std::to_string(spec.sl1d_group_size), true);
  w.field("l1_amount_unavailable",
          spec.l1_amount_unavailable ? "true" : "false", true);
  w.field("cu_sharing_unavailable",
          spec.cu_sharing_unavailable ? "true" : "false", true);
  w.field("active_cu_ids", cu_id_list(spec.active_cu_ids), true);
  const bool has_mig = !spec.mig_profiles.empty();
  w.field_open("elements", "{");
  std::size_t remaining = spec.elements.size();
  for (const auto& [element, element_spec] : spec.elements) {
    w.field_open(element_name(element), "{");
    emit_element(w, element_spec, /*comma=*/--remaining != 0);
  }
  w.close("}", has_mig);
  if (has_mig) {
    w.field_open("mig_profiles", "[");
    for (std::size_t i = 0; i < spec.mig_profiles.size(); ++i) {
      const MigProfile& p = spec.mig_profiles[i];
      w.line("{\"name\": " + quoted(p.name) +
             ", \"sm_count\": " + std::to_string(p.sm_count) +
             ", \"l2_bytes\": " + std::to_string(p.l2_bytes) +
             ", \"mem_bytes\": " + std::to_string(p.mem_bytes) +
             ", \"bandwidth_fraction\": " +
             exact_double(p.bandwidth_fraction) + "}" +
             (i + 1 < spec.mig_profiles.size() ? "," : ""));
    }
    w.close("]");
  }
  w.close("}");
  return w.take();
}

GpuSpec spec_from_json(const json::Value& document) {
  std::vector<std::string> errors;
  GpuSpec spec;
  const std::string context =
      document.find("name") != nullptr && document.find("name")->is_string()
          ? "spec '" + document.find("name")->as_string() + "'"
          : "spec";
  ObjectReader r(document, context, errors);

  const std::string schema = r.get_string("schema", false, kSchemaId);
  if (schema != kSchemaId) {
    r.error("unsupported schema '" + schema + "' (expected '" +
            std::string(kSchemaId) + "')");
  }
  spec.name = r.get_string("name", /*required=*/true);
  spec.model = r.get_string("model", false);
  spec.microarchitecture = r.get_string("microarchitecture", false);
  const std::string vendor = r.get_string("vendor", /*required=*/true, "NVIDIA");
  if (to_lower(vendor) == "nvidia") {
    spec.vendor = Vendor::kNvidia;
  } else if (to_lower(vendor) == "amd") {
    spec.vendor = Vendor::kAmd;
  } else {
    r.error("unknown vendor '" + vendor + "' (expected NVIDIA or AMD)");
  }
  spec.compute_capability = r.get_string("compute_capability", false);
  spec.clock_mhz = r.get_double("clock_mhz", false, spec.clock_mhz);
  spec.memory_clock_mhz =
      r.get_double("memory_clock_mhz", false, spec.memory_clock_mhz);
  spec.memory_bus_bits = r.get_u32("memory_bus_bits", false, spec.memory_bus_bits);
  spec.num_sms = r.get_u32("num_sms", false, spec.num_sms);
  spec.cores_per_sm = r.get_u32("cores_per_sm", false, spec.cores_per_sm);
  spec.warp_size = r.get_u32("warp_size", false, spec.warp_size);
  spec.max_threads_per_block =
      r.get_u32("max_threads_per_block", false, spec.max_threads_per_block);
  spec.max_threads_per_sm =
      r.get_u32("max_threads_per_sm", false, spec.max_threads_per_sm);
  spec.max_blocks_per_sm =
      r.get_u32("max_blocks_per_sm", false, spec.max_blocks_per_sm);
  spec.regs_per_block = r.get_u32("regs_per_block", false, spec.regs_per_block);
  spec.regs_per_sm = r.get_u32("regs_per_sm", false, spec.regs_per_sm);
  spec.xcd_count = r.get_u32("xcd_count", false, spec.xcd_count);
  spec.sl1d_group_size =
      r.get_u32("sl1d_group_size", false, spec.sl1d_group_size);
  spec.l1_amount_unavailable =
      r.get_bool("l1_amount_unavailable", spec.l1_amount_unavailable);
  spec.cu_sharing_unavailable =
      r.get_bool("cu_sharing_unavailable", spec.cu_sharing_unavailable);

  if (const json::Value* ids = r.get("active_cu_ids", false)) {
    if (!ids->is_array()) {
      r.error("field 'active_cu_ids' must be an array of CU ids");
    } else {
      for (const json::Value& id : ids->as_array()) {
        if (!id.is_int() || id.as_int() < 0) {
          r.error("field 'active_cu_ids' must hold non-negative integers");
          break;
        }
        spec.active_cu_ids.push_back(static_cast<std::uint32_t>(id.as_int()));
      }
    }
  }

  if (const json::Value* elements = r.get("elements", /*required=*/true)) {
    if (!elements->is_object()) {
      r.error("field 'elements' must be an object keyed by element name");
    } else {
      for (const auto& [key, value] : elements->as_object()) {
        Element element;
        try {
          element = parse_element(key);
        } catch (const std::invalid_argument&) {
          r.error("unknown element '" + key +
                  "' (expected L1, L2, L3, Texture, ReadOnly, ConstL1, "
                  "ConstL15, SharedMemory, LDS, vL1, sL1d or DeviceMemory)");
          continue;
        }
        if (spec.elements.count(element) != 0) {
          r.error("element '" + key + "' appears twice (aliases map to the "
                  "same element)");
          continue;
        }
        spec.elements[element] = parse_element_spec(
            value, context + ": element " + element_name(element), errors);
      }
    }
  }

  if (const json::Value* profiles = r.get("mig_profiles", false)) {
    if (!profiles->is_array()) {
      r.error("field 'mig_profiles' must be an array");
    } else {
      for (std::size_t i = 0; i < profiles->as_array().size(); ++i) {
        spec.mig_profiles.push_back(parse_mig_profile(
            profiles->as_array()[i],
            context + ": mig_profiles[" + std::to_string(i) + "]", errors));
      }
    }
  }

  r.reject_unknown_keys();
  if (!errors.empty()) throw SpecError(std::move(errors));
  return spec;
}

GpuSpec spec_from_json_string(const std::string& text,
                              const std::string& source) {
  const json::ParseResult parsed = json::parse(text);
  if (!parsed.ok()) {
    throw SpecError(source + ": not valid JSON at byte " +
                    std::to_string(parsed.error.offset) + ": " +
                    parsed.error.message);
  }
  try {
    return spec_from_json(*parsed.value);
  } catch (SpecError& error) {
    std::vector<std::string> details;
    details.reserve(error.details().size());
    for (const auto& detail : error.details()) {
      details.push_back(source + ": " + detail);
    }
    throw SpecError(std::move(details));
  }
}

GpuSpec load_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SpecError(path + ": cannot read spec file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return spec_from_json_string(buffer.str(), path);
}

std::vector<std::string> validate_spec(const GpuSpec& spec) {
  std::vector<std::string> errors;
  const std::string ctx =
      "spec '" + (spec.name.empty() ? std::string("?") : spec.name) + "'";
  auto error = [&](const std::string& message) {
    errors.push_back(ctx + ": " + message);
  };

  if (spec.name.empty()) error("model name must not be empty");
  if (spec.num_sms == 0) error("num_sms must be >= 1");
  if (spec.cores_per_sm == 0) error("cores_per_sm must be >= 1");
  if (spec.warp_size == 0) error("warp_size must be >= 1");
  if (spec.max_threads_per_block == 0) error("max_threads_per_block must be >= 1");
  if (spec.max_threads_per_sm == 0) error("max_threads_per_sm must be >= 1");
  if (spec.max_blocks_per_sm == 0) error("max_blocks_per_sm must be >= 1");
  if (spec.xcd_count == 0) error("xcd_count must be >= 1");
  if (!(spec.clock_mhz > 0)) error("clock_mhz must be > 0");
  if (!(spec.memory_clock_mhz > 0)) error("memory_clock_mhz must be > 0");
  if (spec.elements.empty()) error("declares no memory elements");

  for (const auto& [element, e] : spec.elements) {
    const std::string where = "element " + element_name(element) + ": ";
    auto element_error = [&](const std::string& message) {
      error(where + message);
    };
    if (e.size_bytes == 0) element_error("size_bytes must be > 0");
    if (!(e.latency_cycles > 0)) element_error("latency_cycles must be > 0");
    if (e.amount == 0) element_error("amount must be >= 1");
    if (e.line_bytes == 0) {
      if (e.sector_bytes != 0) {
        element_error("sector_bytes " + std::to_string(e.sector_bytes) +
                      " set on a non-cache element (line_bytes is 0)");
      }
      continue;
    }
    if (e.line_bytes > e.size_bytes) {
      element_error("line_bytes " + std::to_string(e.line_bytes) +
                    " exceeds size_bytes " + std::to_string(e.size_bytes));
    }
    if (e.sector_bytes == 0) {
      element_error("sector_bytes must be > 0 on a cache (line_bytes is set)");
    } else if (e.line_bytes % e.sector_bytes != 0) {
      element_error("sector_bytes " + std::to_string(e.sector_bytes) +
                    " does not divide line_bytes " +
                    std::to_string(e.line_bytes));
    } else if (e.line_bytes / e.sector_bytes > 32) {
      // SectoredCache keeps a line's valid sectors in one 32-bit mask.
      element_error("line_bytes " + std::to_string(e.line_bytes) +
                    " / sector_bytes " + std::to_string(e.sector_bytes) +
                    " gives " + std::to_string(e.line_bytes / e.sector_bytes) +
                    " sectors per line; a cache holds at most 32");
    }
    if (e.associativity == 0) {
      element_error("associativity must be >= 1");
    }
    if (e.size_bytes % e.line_bytes != 0) {
      element_error("line_bytes " + std::to_string(e.line_bytes) +
                    " does not divide size_bytes " +
                    std::to_string(e.size_bytes) + " into whole lines");
    } else if (e.associativity != 0 &&
               (e.size_bytes / e.line_bytes) % e.associativity != 0) {
      element_error("associativity " + std::to_string(e.associativity) +
                    " does not split the " +
                    std::to_string(e.size_bytes / e.line_bytes) +
                    "-line cache into whole sets");
    }
  }

  // The CL1.5 size search runs over constant arrays from max(2 x ConstL1,
  // 4 KiB), so Const L1 hits cannot mask it, up to 64 KiB: a smaller CL1.5
  // is misread, and a start past 64 KiB aborts the discovery.
  if (spec.has(Element::kConstL15)) {
    const std::uint64_t cl1 =
        spec.has(Element::kConstL1) ? spec.at(Element::kConstL1).size_bytes : 0;
    const std::uint64_t cl15 = spec.at(Element::kConstL15).size_bytes;
    const std::string start =
        "max(2 x ConstL1 size_bytes " + std::to_string(cl1) + ", 4096)";
    if (cl15 < std::max<std::uint64_t>(2 * cl1, 4096)) {
      error("element ConstL15: size_bytes " + std::to_string(cl15) +
            " is below where its size benchmark starts, " + start);
    }
    if (cl1 > 32768) {
      error("element ConstL15: its size benchmark starts at " + start +
            ", beyond the 65536-byte constant array limit");
    }
  }

  // Elements sharing a physical cache (paper IV-G) must describe the same
  // hardware: any geometry disagreement is a spec bug the simulator would
  // silently "resolve" by whichever element is built last.
  std::map<std::uint32_t, Element> group_owner;
  for (const auto& [element, e] : spec.elements) {
    if (!e.per_sm || e.line_bytes == 0) continue;
    const auto [it, inserted] = group_owner.emplace(e.physical_group, element);
    if (inserted) continue;
    const ElementSpec& lead = spec.elements.at(it->second);
    auto mismatch = [&](const char* field, std::uint64_t a, std::uint64_t b) {
      if (a == b) return;
      error("elements " + element_name(it->second) + " and " +
            element_name(element) + " share physical group " +
            std::to_string(e.physical_group) + " but disagree on " + field +
            " (" + std::to_string(a) + " vs " + std::to_string(b) + ")");
    };
    mismatch("size_bytes", lead.size_bytes, e.size_bytes);
    mismatch("line_bytes", lead.line_bytes, e.line_bytes);
    mismatch("sector_bytes", lead.sector_bytes, e.sector_bytes);
    mismatch("associativity", lead.associativity, e.associativity);
    mismatch("amount", lead.amount, e.amount);
  }

  if (!spec.active_cu_ids.empty()) {
    if (spec.active_cu_ids.size() != spec.num_sms) {
      error("active_cu_ids lists " +
            std::to_string(spec.active_cu_ids.size()) +
            " ids but num_sms is " + std::to_string(spec.num_sms));
    }
    for (std::size_t i = 1; i < spec.active_cu_ids.size(); ++i) {
      if (spec.active_cu_ids[i] <= spec.active_cu_ids[i - 1]) {
        error("active_cu_ids must be strictly increasing (id " +
              std::to_string(spec.active_cu_ids[i]) + " at position " +
              std::to_string(i) + ")");
        break;
      }
    }
  }
  if (spec.has(Element::kSL1D) &&
      (spec.sl1d_group_size < 1 || spec.sl1d_group_size > 8)) {
    error("sl1d_group_size must be in [1, 8] when an sL1d element exists "
          "(got " + std::to_string(spec.sl1d_group_size) + ")");
  }

  std::set<std::string> profile_names;
  for (const MigProfile& p : spec.mig_profiles) {
    const std::string where = "MIG profile '" + p.name + "': ";
    if (!profile_names.insert(p.name).second) {
      error(where + "duplicate profile name");
      continue;
    }
    if (p.sm_count == 0) error(where + "sm_count must be >= 1");
    if (p.sm_count > spec.num_sms) {
      error(where + "sm_count " + std::to_string(p.sm_count) +
            " exceeds num_sms " + std::to_string(spec.num_sms));
    }
    if (spec.has(Element::kL2)) {
      const ElementSpec& l2 = spec.at(Element::kL2);
      const std::uint64_t capacity = l2.size_bytes * l2.amount;
      if (p.l2_bytes > capacity) {
        error(where + "l2_bytes " + std::to_string(p.l2_bytes) +
              " exceeds the parent L2 capacity " + std::to_string(capacity));
      }
    } else {
      error(where + "declared on a model without an L2 element");
    }
    if (spec.has(Element::kDeviceMem) &&
        p.mem_bytes > spec.at(Element::kDeviceMem).size_bytes) {
      error(where + "mem_bytes " + std::to_string(p.mem_bytes) +
            " exceeds device memory " +
            std::to_string(spec.at(Element::kDeviceMem).size_bytes));
    }
    if (!(p.bandwidth_fraction > 0.0) || p.bandwidth_fraction > 1.0) {
      error(where + "bandwidth_fraction must be in (0, 1]");
    }
  }

  return errors;
}

std::uint64_t spec_content_hash(const GpuSpec& spec) {
  return fnv1a64(spec_to_json(spec));
}

std::string spec_content_hash_hex(const GpuSpec& spec) {
  static const char digits[] = "0123456789abcdef";
  std::uint64_t h = spec_content_hash(spec);
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xF];
    h >>= 4;
  }
  return out;
}

}  // namespace mt4g::sim
