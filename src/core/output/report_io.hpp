// Report round-trip and comparison.
//
// from_json() rebuilds a TopologyReport from the JSON emitted by to_json(),
// enabling the artifact workflow of comparing stored reports against fresh
// runs. diff_reports() produces the per-attribute comparison the paper's
// Sec. V performs manually: discrete attributes must be identical, continuous
// ones are compared with a relative tolerance.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/report.hpp"

namespace mt4g::core {

/// Rebuilds a report from to_json() output. Reports arrive from outside the
/// process (cache files, run journals, worker lines, baseline directories),
/// so every read is checked: throws std::runtime_error naming the field on
/// malformed or non-report JSON, including a count that is not a
/// non-negative integer in its field's range.
TopologyReport from_json(const json::Value& root);

/// Parses @p text and rebuilds the report it holds (see from_json()).
TopologyReport from_json_string(const std::string& text);

/// One attribute-level difference between two reports.
struct ReportDifference {
  std::string element;    ///< "L1", "L2", ... or "general"/"compute"
  std::string attribute;  ///< "size", "load_latency", ...
  std::string lhs;        ///< rendered value of the first report
  std::string rhs;        ///< rendered value of the second report
};

struct DiffOptions {
  /// Relative tolerance for continuous attributes (latency, bandwidth).
  double continuous_tolerance = 0.05;
};

/// Compares two reports: general info, compute info, and every memory
/// element's attributes. Returns the list of differences (empty = match).
std::vector<ReportDifference> diff_reports(const TopologyReport& lhs,
                                           const TopologyReport& rhs,
                                           const DiffOptions& options = {});

}  // namespace mt4g::core
