#include "fleet/job.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/cache_config.hpp"
#include "sim/gpu.hpp"
#include "sim/registry.hpp"

namespace mt4g::fleet {
namespace {

// FNV-1a 64-bit: tiny, dependency-free, and stable by definition — unlike
// std::hash, whose value is implementation-defined and may change between
// standard-library versions, which would silently invalidate cache files.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t h) {
  static const char digits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xF];
    h >>= 4;
  }
  return out;
}

}  // namespace

std::string DiscoveryJob::key() const {
  std::string k;
  k += "model=" + model;
  k += ";seed=" + std::to_string(seed);
  k += ";mig=" + (mig_profile.empty() ? std::string("-") : mig_profile);
  k += ";config=" + cache_config;
  // Canonical element set: sorted + deduplicated, so "--only l1,l2" and
  // "--only l2,l1" are the same work (graph pruning is order-insensitive).
  std::vector<sim::Element> only = options.only;
  std::sort(only.begin(), only.end());
  only.erase(std::unique(only.begin(), only.end()), only.end());
  k += ";only=";
  if (only.empty()) {
    k += "-";
  } else {
    for (std::size_t i = 0; i < only.size(); ++i) {
      if (i > 0) k += ",";
      k += sim::element_name(only[i]);
    }
  }
  k += ";series=" + std::string(options.collect_series ? "1" : "0");
  k += ";compute=" + std::string(options.measure_compute ? "1" : "0");
  // Model content identity: a spec edit (file or registry) changes the key,
  // so cached results can never go stale against the model they were run on.
  std::uint64_t resolved = spec_hash;
  if (resolved == 0 && spec) resolved = sim::spec_content_hash(*spec);
  if (resolved == 0) {
    if (const sim::ModelEntry* entry = sim::default_registry().find(model)) {
      resolved = entry->content_hash;
    }
  }
  k += ";spec=" + (resolved == 0 ? std::string("-") : hex16(resolved));
  return k;
}

std::uint64_t DiscoveryJob::hash() const { return fnv1a(key()); }

std::string DiscoveryJob::hash_hex() const { return hex16(hash()); }

std::vector<DiscoveryJob> expand_jobs(const SweepPlan& plan) {
  const sim::ModelRegistry& registry =
      plan.registry ? *plan.registry : sim::default_registry();
  const std::vector<std::string> models =
      plan.models.empty() ? registry.all_names() : plan.models;
  const std::vector<core::DiscoverOptions> variants =
      plan.option_variants.empty()
          ? std::vector<core::DiscoverOptions>{core::DiscoverOptions{}}
          : plan.option_variants;

  std::vector<DiscoveryJob> jobs;
  for (const auto& model : models) {
    // Resolve each model once; all of its jobs share one spec copy and the
    // registry-computed content hash.
    const sim::ModelEntry* entry = registry.find(model);
    std::shared_ptr<const sim::GpuSpec> spec;
    if (entry) spec = std::make_shared<const sim::GpuSpec>(entry->spec);

    // Partitions: "" (full GPU) first, then each MIG profile by name. The
    // "full" pseudo-profile in the registry duplicates the unpartitioned GPU,
    // so it is skipped.
    std::vector<std::string> partitions = {""};
    if (plan.include_mig && spec) {
      for (const auto& profile : spec->mig_profiles) {
        if (profile.name != "full") partitions.push_back(profile.name);
      }
    }
    for (const auto& partition : partitions) {
      for (std::uint32_t s = 0; s < plan.seed_count; ++s) {
        for (const auto& variant : variants) {
          DiscoveryJob job;
          job.model = model;
          job.seed = plan.first_seed + s;
          job.mig_profile = partition;
          job.cache_config = plan.cache_config;
          job.options = variant;
          job.spec = spec;
          job.spec_hash = entry ? entry->content_hash : 0;
          jobs.push_back(std::move(job));
        }
      }
    }
  }
  return jobs;
}

core::TopologyReport run_job(const DiscoveryJob& job) {
  const sim::GpuSpec spec = core::apply_cache_config(
      job.spec ? *job.spec : sim::default_registry().get(job.model),
      job.cache_config);

  std::optional<sim::MigProfile> mig;
  if (!job.mig_profile.empty()) {
    for (const auto& profile : spec.mig_profiles) {
      if (profile.name == job.mig_profile) {
        mig = profile;
        break;
      }
    }
    if (!mig) {
      throw std::invalid_argument("model '" + job.model +
                                  "' has no MIG profile '" + job.mig_profile +
                                  "'");
    }
  }

  sim::Gpu gpu(spec, job.seed, mig);
  return core::discover(gpu, job.options);
}

}  // namespace mt4g::fleet
