// Reduces a span trace to per-name totals: how many spans, their summed
// duration, and their summed self time — a span's duration minus the part
// covered by its children on the same thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;

  void add(const SpanTotals& other) {
    count += other.count;
    total_s += other.total_s;
    self_s += other.self_s;
  }
};

/// Totals keyed by span name. Dynamic names such as "discovery:H100-80"
/// keep their full text; sum_prefix() folds them.
std::map<std::string, SpanTotals> reduce_spans(
    const std::vector<mt4g::obs::TraceEvent>& events);

/// Sum of every entry whose name starts with @p prefix.
SpanTotals sum_prefix(const std::map<std::string, SpanTotals>& spans,
                      std::string_view prefix);

}  // namespace perfbench
