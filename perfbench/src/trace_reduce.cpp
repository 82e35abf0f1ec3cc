#include "trace_reduce.hpp"

#include <algorithm>
#include <numeric>

namespace perfbench {

std::map<std::string, SpanTotals> reduce_spans(
    const std::vector<mt4g::obs::TraceEvent>& events) {
  // Spans on one thread nest strictly (they are RAII scopes), so ordering
  // them by (thread, start, longest first) lists every parent before its
  // children, and a stack of open spans finds each span's parent.
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = events[a];
    const auto& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.end_ns > y.end_ns;
  });
  std::vector<double> self(events.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t position = 0; position < order.size(); ++position) {
    const std::size_t i = order[position];
    const auto& event = events[i];
    if (position > 0 && events[order[position - 1]].tid != event.tid) {
      open.clear();
    }
    while (!open.empty() && events[open.back()].end_ns < event.end_ns) {
      open.pop_back();
    }
    const double duration =
        static_cast<double>(event.end_ns - event.start_ns) * 1e-9;
    self[i] += duration;
    if (!open.empty()) self[open.back()] -= duration;
    open.push_back(i);
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < events.size(); ++i) {
    SpanTotals& entry = totals[events[i].name];
    ++entry.count;
    entry.total_s +=
        static_cast<double>(events[i].end_ns - events[i].start_ns) * 1e-9;
    entry.self_s += self[i];
  }
  return totals;
}

SpanTotals sum_prefix(const std::map<std::string, SpanTotals>& spans,
                      std::string_view prefix) {
  SpanTotals sum;
  for (auto it = spans.lower_bound(std::string(prefix));
       it != spans.end() && it->first.starts_with(prefix); ++it) {
    sum.add(it->second);
  }
  return sum;
}

}  // namespace perfbench
