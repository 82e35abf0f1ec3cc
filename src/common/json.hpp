// Minimal ordered JSON document model + serialiser.
//
// MT4G's primary machine-readable output is a JSON report. We keep a tiny
// hand-rolled value type (no external dependency) that preserves insertion
// order of object keys, so reports diff cleanly between runs — the property
// the paper's artifact relies on when comparing JSON outputs directly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace mt4g::json {

class Value;

using Array = std::vector<Value>;
/// Insertion-ordered key/value list. Lookup is linear; reports are small.
using Object = std::vector<std::pair<std::string, Value>>;

/// A JSON value: null, bool, integer, double, string, array or object.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(int v) : data_(static_cast<std::int64_t>(v)) {}
  Value(unsigned v) : data_(static_cast<std::int64_t>(v)) {}
  Value(std::int64_t v) : data_(v) {}
  Value(std::uint64_t v) : data_(static_cast<std::int64_t>(v)) {}
  Value(double v) : data_(v) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<Array>(data_); }
  bool is_object() const { return std::holds_alternative<Object>(data_); }

  bool as_bool() const { return std::get<bool>(data_); }
  std::int64_t as_int() const { return std::get<std::int64_t>(data_); }
  double as_double() const {
    if (is_int()) return static_cast<double>(as_int());
    return std::get<double>(data_);
  }
  const std::string& as_string() const { return std::get<std::string>(data_); }
  const Array& as_array() const { return std::get<Array>(data_); }
  const Object& as_object() const { return std::get<Object>(data_); }
  Array& as_array() { return std::get<Array>(data_); }
  Object& as_object() { return std::get<Object>(data_); }

  /// Object member access; returns nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  /// Appends (or overwrites) a member on an object value.
  void set(const std::string& key, Value value);

  /// Serialises with 2-space indentation and '\n' line ends. A negative
  /// indent emits the compact single-line form (no whitespace at all) — the
  /// shape line-delimited protocols (fleet worker pipes, run journals) need,
  /// where '\n' may only ever terminate a record. @p exact writes each
  /// double in the shortest form that parses back to the same bits, for
  /// records a program reads back instead of a person.
  std::string dump(int indent = 2, bool exact = false) const;

 private:
  void dump_impl(std::string& out, int indent, int depth, bool exact) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      data_;
};

/// Escapes a raw string for embedding inside a JSON string literal.
std::string escape(const std::string& raw);

}  // namespace mt4g::json
