#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace mt4g::json {

std::string escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Value::set(const std::string& key, Value value) {
  if (!is_object()) data_ = Object{};
  for (auto& [k, v] : as_object()) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  as_object().emplace_back(key, std::move(value));
}

namespace {

std::string format_double(double v, bool exact) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  char buf[64];
  std::string s;
  if (exact) {
    s.assign(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);  // shortest
  } else {
    // %.10g round-trips the values we emit (latencies, bandwidths,
    // confidences) without trailing noise digits.
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    s = buf;
  }
  // Ensure a JSON reader sees a float, not an int, for double-typed fields.
  if (s.find_first_of(".eE") == std::string::npos) s += ".0";
  return s;
}

}  // namespace

void Value::dump_impl(std::string& out, int indent, int depth,
                      bool exact) const {
  const bool compact = indent < 0;
  const std::string pad(
      compact ? 0 : static_cast<std::size_t>(indent) * depth, ' ');
  const std::string pad_in(
      compact ? 0 : static_cast<std::size_t>(indent) * (depth + 1), ' ');
  const char* newline = compact ? "" : "\n";
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_int()) {
    out += std::to_string(as_int());
  } else if (is_double()) {
    out += format_double(std::get<double>(data_), exact);
  } else if (is_string()) {
    out += '"' + escape(as_string()) + '"';
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    out += newline;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      out += pad_in;
      arr[i].dump_impl(out, indent, depth + 1, exact);
      if (i + 1 < arr.size()) out += ',';
      out += newline;
    }
    out += pad + "]";
  } else {
    const auto& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    out += newline;
    for (std::size_t i = 0; i < obj.size(); ++i) {
      out += pad_in + '"' + escape(obj[i].first) + "\":";
      if (!compact) out += ' ';
      obj[i].second.dump_impl(out, indent, depth + 1, exact);
      if (i + 1 < obj.size()) out += ',';
      out += newline;
    }
    out += pad + "}";
  }
}

std::string Value::dump(int indent, bool exact) const {
  std::string out;
  dump_impl(out, indent, 0, exact);
  return out;
}

}  // namespace mt4g::json
