// Spec agreement: compares a discovery report, attribute by attribute, with
// the GpuSpec the simulated GPU ran on. A report can be deterministic and
// still wrong; this is the check that it is right.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "sim/spec.hpp"

namespace perfbench {

struct SpecCheck {
  std::uint64_t attributes = 0;     ///< report attributes compared
  std::uint64_t cu_peer_lists = 0;  ///< AMD per-CU sL1d peer lists compared
  std::uint64_t mismatches = 0;
  std::vector<std::string> details;  ///< one line per mismatch

  void merge(const SpecCheck& other);
};

/// Rules:
///  - size, line size, fetch granularity and amount must equal the spec;
///    load latency must lie within 4 cycles of it;
///  - an NVIDIA L2 reports the whole chip (per-segment size x segments),
///    an AMD L2 one instance;
///  - a size noted ">N" is the tool's documented lower bound and agrees when
///    the spec exceeds N;
///  - rows the tool documents as out of reach (Constant L1.5 amount, CDNA3
///    L3 latency and fetch granularity, the spec's l1_amount_unavailable and
///    cu_sharing_unavailable quirks) must read unavailable; any other
///    unavailable attribute the spec defines is a mismatch;
///  - each AMD CU's sL1d peers must equal GpuSpec::sl1d_peers.
SpecCheck check_against_spec(const mt4g::core::TopologyReport& report,
                             const mt4g::sim::GpuSpec& spec);

}  // namespace perfbench
