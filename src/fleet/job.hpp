// Fleet discovery jobs (the unit of work of the orchestrator).
//
// A DiscoveryJob is a pure value describing one topology-discovery run: which
// registry model, which noise seed, which MIG partition (if any), which
// L1/Shared cache-config policy, and the DiscoverOptions passed to
// core::discover(). Jobs carry a stable content hash derived from a canonical
// key string, so identical work is recognised across processes and sweeps —
// the property the result cache (cache.hpp) is keyed on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/collector.hpp"
#include "core/report.hpp"
#include "sim/registry.hpp"

namespace mt4g::fleet {

/// One topology-discovery run, fully described by value.
struct DiscoveryJob {
  std::string model;                       ///< registry key, e.g. "H100-80"
  std::uint64_t seed = 42;                 ///< simulator noise seed
  std::string mig_profile;                 ///< MIG profile name; "" = full GPU
  std::string cache_config = "PreferL1";   ///< L1/Shared split policy
  core::DiscoverOptions options;
  /// Resolved model spec. Null = look `model` up in default_registry() at run
  /// time; expand_jobs() pre-resolves it so a sweep over a custom registry
  /// carries the actual spec with every job.
  std::shared_ptr<const sim::GpuSpec> spec;
  /// Content hash of the resolved spec (sim::spec_content_hash). 0 = derive
  /// on demand from `spec` or the default registry. Part of key(): editing a
  /// spec file changes the job identity, so the result cache can never serve
  /// a stale report for a modified model.
  std::uint64_t spec_hash = 0;

  /// Canonical identity string: every field in a fixed order with explicit
  /// separators. Two jobs are the same work iff their keys are equal.
  /// DiscoverOptions::sweep_threads and bench_threads are deliberately
  /// excluded — they are execution knobs whose report is byte-identical for
  /// every value, so a cached result answers any setting. The trailing spec=<hex16>
  /// component is the content hash of the model spec the job resolves to.
  std::string key() const;

  /// Stable 64-bit FNV-1a hash of key(). Identical across processes,
  /// platforms, and library versions that keep the key format.
  std::uint64_t hash() const;

  /// hash() rendered as 16 lowercase hex digits (the cache-file key).
  std::string hash_hex() const;

  bool operator==(const DiscoveryJob& other) const {
    return key() == other.key();
  }
};

/// Declarative description of a whole-registry sweep; expand_jobs() turns it
/// into the concrete job list.
struct SweepPlan {
  /// Registry models to cover; empty = registry_all_names().
  std::vector<std::string> models;
  /// Number of consecutive noise seeds per configuration.
  std::uint32_t seed_count = 1;
  /// First seed; jobs use first_seed, first_seed+1, ...
  std::uint64_t first_seed = 42;
  /// Also enqueue one job per MIG profile of MIG-capable models.
  bool include_mig = true;
  /// DiscoverOptions variants to cover (each model×seed×partition runs every
  /// variant). Empty = one default-constructed DiscoverOptions.
  std::vector<core::DiscoverOptions> option_variants;
  /// Cache-config policy applied to every job.
  std::string cache_config = "PreferL1";
  /// Model catalogue the sweep draws from; nullptr = sim::default_registry().
  /// Jobs copy the resolved specs, so the registry only needs to live through
  /// expand_jobs() itself.
  const sim::ModelRegistry* registry = nullptr;
};

/// Expands a plan into the concrete, deterministically ordered job list:
/// models outermost, then MIG partitions, then seeds, then option variants.
std::vector<DiscoveryJob> expand_jobs(const SweepPlan& plan);

/// Executes one job: registry lookup, cache-config rewrite, Gpu construction
/// and core::discover(). Throws (std::out_of_range, std::invalid_argument)
/// on unknown models / MIG profiles / cache configs — the scheduler captures
/// these per job instead of aborting the sweep.
core::TopologyReport run_job(const DiscoveryJob& job);

}  // namespace mt4g::fleet
