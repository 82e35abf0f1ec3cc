#include "spec_check.hpp"

#include <algorithm>
#include <cmath>

#include "harness.hpp"

namespace perfbench {

namespace core = mt4g::core;
namespace sim = mt4g::sim;
using sim::Element;

void SpecCheck::merge(const SpecCheck& other) {
  attributes += other.attributes;
  cu_peer_lists += other.cu_peer_lists;
  mismatches += other.mismatches;
  details.insert(details.end(), other.details.begin(), other.details.end());
}

namespace {

/// The tolerance tests/test_real_gpus.cpp grants measured latencies.
constexpr double kLatencyToleranceCycles = 4.0;

enum class Field { kSize, kLatency, kLine, kFetchGranularity, kAmount };

const char* field_name(Field field) {
  switch (field) {
    case Field::kSize: return "size";
    case Field::kLatency: return "latency";
    case Field::kLine: return "line";
    case Field::kFetchGranularity: return "fetch granularity";
    case Field::kAmount: return "amount";
  }
  return "?";
}

/// Rows the tool cannot measure by design (paper Sec. III-C and V).
/// @p size_bounded: the size row is only a lower bound, so the line-size
/// benchmark, which takes the size as input, cannot run.
bool documented_unavailable(const sim::GpuSpec& spec, Element element,
                            Field field, bool size_bounded) {
  switch (field) {
    case Field::kAmount:
      return element == Element::kConstL15 ||
             (element == Element::kL1 && spec.l1_amount_unavailable);
    case Field::kLatency:
    case Field::kFetchGranularity:
      return element == Element::kL3;
    case Field::kLine:
      return size_bounded;
    default:
      return false;
  }
}

bool is_lower_bound(const core::Attribute& attribute) {
  return !attribute.note.empty() && attribute.note.front() == '>';
}

class Checker {
 public:
  explicit Checker(const sim::GpuSpec& spec) : spec_(spec) {}

  void attribute(Element element, Field field, const core::Attribute& reported,
                 double truth, bool size_bounded) {
    if (reported.provenance == core::Provenance::kNotApplicable) return;
    const bool expect_unavailable =
        documented_unavailable(spec_, element, field, size_bounded);
    if (!reported.available()) {
      if (truth == 0.0) return;  // the spec defines no value either
      ++out_.attributes;
      if (!expect_unavailable) {
        mismatch(element, field, "unavailable (" + reported.note + ")", truth);
      }
      return;
    }
    if (truth == 0.0) return;
    ++out_.attributes;
    if (expect_unavailable) {
      mismatch(element, field, format_number(reported.value) +
                                   " where the tool documents no answer",
               truth);
      return;
    }
    bool agrees = reported.value == truth;
    if (field == Field::kLatency) {
      agrees = std::abs(reported.value - truth) <= kLatencyToleranceCycles;
    } else if (field == Field::kSize && is_lower_bound(reported)) {
      // The search stopped at the array limit: the cache holds at least it.
      agrees = truth >= reported.value;
    }
    if (!agrees) mismatch(element, field, format_number(reported.value), truth);
  }

  void cu_sharing(const core::CuSharingInfo& sharing) {
    if (spec_.vendor != sim::Vendor::kAmd || !spec_.has(Element::kSL1D)) {
      return;
    }
    ++out_.attributes;
    if (spec_.cu_sharing_unavailable) {
      if (sharing.available) fail("CU sharing reported on a virtualised GPU");
      return;
    }
    if (!sharing.available) {
      fail("CU sharing unavailable: " + sharing.unavailable_reason);
      return;
    }
    for (std::uint32_t logical = 0; logical < spec_.num_sms; ++logical) {
      const std::uint32_t physical = spec_.physical_cu(logical);
      ++out_.cu_peer_lists;
      const auto found = sharing.peers.find(physical);
      std::vector<std::uint32_t> reported;
      if (found != sharing.peers.end()) reported = found->second;
      std::sort(reported.begin(), reported.end());
      if (reported != spec_.sl1d_peers(physical)) {
        fail("sL1d peers of CU " + std::to_string(physical) + " differ");
      }
    }
  }

  SpecCheck take() { return std::move(out_); }

 private:
  void mismatch(Element element, Field field, const std::string& reported,
                double truth) {
    fail(sim::element_name(element) + " " + field_name(field) + ": reported " +
         reported + ", spec " + format_number(truth));
  }
  void fail(const std::string& what) {
    ++out_.mismatches;
    out_.details.push_back(spec_.name + " " + what);
  }

  const sim::GpuSpec& spec_;
  SpecCheck out_;
};

}  // namespace

SpecCheck check_against_spec(const core::TopologyReport& report,
                             const sim::GpuSpec& spec) {
  Checker checker(spec);
  for (const core::MemoryElementReport& row : report.memory) {
    if (!spec.has(row.element)) continue;
    const sim::ElementSpec& truth = spec.at(row.element);
    double size = static_cast<double>(truth.size_bytes);
    if (spec.vendor == sim::Vendor::kNvidia && row.element == Element::kL2) {
      size *= spec.l2_segments();  // the API reports the whole chip
    }
    const bool bounded = is_lower_bound(row.size);
    checker.attribute(row.element, Field::kSize, row.size, size, bounded);
    checker.attribute(row.element, Field::kLatency, row.load_latency,
                      truth.latency_cycles, bounded);
    checker.attribute(row.element, Field::kLine, row.cache_line,
                      truth.line_bytes, bounded);
    checker.attribute(row.element, Field::kFetchGranularity,
                      row.fetch_granularity, truth.sector_bytes, bounded);
    checker.attribute(row.element, Field::kAmount, row.amount, truth.amount,
                      bounded);
  }
  checker.cu_sharing(report.cu_sharing);
  return checker.take();
}

}  // namespace perfbench
