// Direct probes of single layers, run once per traced run: the simulator's
// hot loop and replica life cycle, and the fleet's fixed per-run costs
// (worker start-up, cache file I/O, journal appends).
#pragma once

#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "harness.hpp"

namespace perfbench {

/// sim.probe_ns, sim.pass_mloads_s, and sim.{construct,fork,flush}_ms.<m>
/// plus sim.fork_mib.<m> for the largest NVIDIA and AMD models.
void probe_sim(std::vector<Metric>& metrics);

/// fleet.procs_startup_ms, fleet.cache_load_ms, fleet.cache_save_ms,
/// fleet.cache_bytes and fleet.journal_append_ms. @p cache_path is a cache
/// file holding @p results; scratch files go to @p scratch_dir.
void probe_fleet(std::vector<Metric>& metrics,
                 const std::vector<mt4g::fleet::JobResult>& results,
                 const std::string& cache_path, const std::string& scratch_dir,
                 const std::vector<std::string>& worker_argv);

}  // namespace perfbench
