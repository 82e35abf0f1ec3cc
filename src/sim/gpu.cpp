#include "sim/gpu.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/units.hpp"

namespace mt4g::sim {
namespace {

bool is_per_sm_cache(Element element) {
  switch (element) {
    case Element::kL1:
    case Element::kTexture:
    case Element::kReadOnly:
    case Element::kConstL1:
    case Element::kConstL15:
    case Element::kVL1:
      return true;
    default:
      return false;
  }
}

CacheGeometry geometry_of(const ElementSpec& spec) {
  CacheGeometry g;
  g.size_bytes = spec.size_bytes;
  g.line_bytes = spec.line_bytes;
  g.sector_bytes = spec.sector_bytes;
  g.associativity = spec.associativity;
  return g;
}

}  // namespace

Gpu::Gpu(const GpuSpec& spec, std::uint64_t seed, std::optional<MigProfile> mig,
         const NoiseParams& noise)
    : spec_(spec),
      mig_(std::move(mig)),
      seed_(seed),
      noise_(noise, Xoshiro256(seed)) {
  // Per-SM caches, one physical cache per sharing group. Elements that share
  // a physical_group must agree on geometry; the first one encountered wins
  // and a mismatch is a spec bug we surface immediately.
  sm_caches_.resize(spec_.num_sms);
  for (std::uint32_t sm = 0; sm < spec_.num_sms; ++sm) {
    for (const auto& [element, espec] : spec_.elements) {
      if (!is_per_sm_cache(element)) continue;
      auto [it, inserted] = sm_caches_[sm].try_emplace(espec.physical_group);
      if (inserted) {
        it->second.representative = element;
        const std::uint32_t segments = std::max<std::uint32_t>(espec.amount, 1);
        for (std::uint32_t s = 0; s < segments; ++s) {
          it->second.segments.emplace_back(geometry_of(espec));
        }
      } else {
        const auto& rep = spec_.at(it->second.representative);
        if (rep.size_bytes != espec.size_bytes ||
            rep.line_bytes != espec.line_bytes ||
            rep.sector_bytes != espec.sector_bytes) {
          throw std::invalid_argument(
              "gpu: elements sharing physical_group disagree on geometry");
        }
      }
    }
  }

  if (spec_.has(Element::kL2)) {
    const auto& l2 = spec_.at(Element::kL2);
    const std::uint32_t segments = std::max<std::uint32_t>(l2.amount, 1);
    for (std::uint32_t s = 0; s < segments; ++s) {
      l2_segments_.emplace_back(geometry_of(l2));
    }
  }
  if (spec_.has(Element::kL3)) {
    l3_ = std::make_unique<SectoredCache>(geometry_of(spec_.at(Element::kL3)));
  }
  if (spec_.has(Element::kSL1D)) {
    const auto& sl1d = spec_.at(Element::kSL1D);
    for (std::uint32_t logical = 0; logical < spec_.num_sms; ++logical) {
      const std::uint32_t group =
          spec_.physical_cu(logical) / std::max<std::uint32_t>(spec_.sl1d_group_size, 1);
      sl1d_.try_emplace(group, geometry_of(sl1d));
    }
  }
  std::size_t caches = l2_segments_.size() + sl1d_.size() + (l3_ ? 1 : 0);
  for (const SmCaches& sm : sm_caches_) {
    for (const auto& [group, cache] : sm) caches += cache.segments.size();
  }
  flush_list_.reserve(caches);
}

void Gpu::set_l2_fetch_granularity(std::uint32_t bytes) {
  if (!spec_.has(Element::kL2)) {
    throw std::invalid_argument("set_l2_fetch_granularity: no L2 cache");
  }
  auto& l2 = spec_.elements.at(Element::kL2);
  if (bytes == 0 || l2.line_bytes % bytes != 0) {
    throw std::invalid_argument(
        "set_l2_fetch_granularity: granularity must divide the line size");
  }
  l2.sector_bytes = bytes;
  // Rebuilding loses the segments' content (the real cudaDeviceSetLimit does
  // flush), but the accumulated hit/miss counters are telemetry, not cache
  // state: carry them over so a mid-discovery granularity switch does not
  // zero the scout counter report.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> carried;
  carried.reserve(l2_segments_.size());
  for (const auto& segment : l2_segments_) {
    carried.emplace_back(segment.hits(), segment.misses());
  }
  // The rebuilt segments start empty: the old ones leave the flush list.
  std::erase_if(flush_list_, [this](const SectoredCache* cache) {
    return std::any_of(
        l2_segments_.begin(), l2_segments_.end(),
        [cache](const SectoredCache& segment) { return &segment == cache; });
  });
  const std::uint32_t segments = std::max<std::uint32_t>(l2.amount, 1);
  l2_segments_.clear();
  for (std::uint32_t s = 0; s < segments; ++s) {
    l2_segments_.emplace_back(geometry_of(l2));
    if (s < carried.size()) {
      l2_segments_.back().set_counters(carried[s].first, carried[s].second);
    }
  }
  ++path_epoch_;  // compiled paths hold dangling L2 pointers now
}

Gpu Gpu::fork(std::uint64_t noise_seed) const {
  // spec_ carries every runtime mutation (set_l2_fetch_granularity rewrites
  // the L2 sector size in place), so reconstructing from it reproduces the
  // current configuration with pristine cache contents.
  Gpu replica(spec_, noise_seed, mig_, noise_.params());
  replica.heap_top_ = heap_top_;
  return replica;
}

void Gpu::reseed_noise(std::uint64_t noise_seed) {
  noise_ = NoiseModel(noise_.params(), Xoshiro256(noise_seed));
}

std::uint32_t Gpu::l2_fetch_granularity() const {
  return spec_.has(Element::kL2) ? spec_.at(Element::kL2).sector_bytes : 0;
}

std::uint32_t Gpu::visible_sms() const {
  return mig_ ? mig_->sm_count : spec_.num_sms;
}

std::uint64_t Gpu::single_sm_visible_l2() const {
  if (!spec_.has(Element::kL2)) return 0;
  const std::uint64_t segment = spec_.at(Element::kL2).size_bytes;
  return mig_ ? std::min<std::uint64_t>(mig_->l2_bytes, segment) : segment;
}

std::uint64_t Gpu::alloc(std::uint64_t bytes, std::uint64_t alignment) {
  if (alignment == 0) alignment = 1;
  heap_top_ = round_up(heap_top_, alignment);
  const std::uint64_t base = heap_top_;
  heap_top_ += round_up(std::max<std::uint64_t>(bytes, 1), alignment);
  return base;
}

AccessPath Gpu::compile_path(const Placement& where, Space space,
                             AccessFlags flags) {
  AccessPath path;
  path.epoch = path_epoch_;

  if (space == Space::kShared) {
    // Scratchpads bypass the cache hierarchy entirely: the path has no cache
    // levels and terminates in Shared Memory / LDS, not device memory.
    path.terminal = spec_.vendor == Vendor::kNvidia ? Element::kSharedMem
                                                    : Element::kLds;
    path.terminal_latency = rounded_latency(path.terminal);
    path.terminal_is_dmem = false;
    return path;
  }

  Element chain[AccessPath::kMaxLevels];
  std::size_t chain_len = 0;
  auto push_if = [this, &chain, &chain_len](Element e) {
    if (spec_.has(e)) chain[chain_len++] = e;
  };
  if (spec_.vendor == Vendor::kNvidia) {
    switch (space) {
      case Space::kGlobal:
        if (!flags.bypass_l1) push_if(Element::kL1);
        push_if(Element::kL2);
        break;
      case Space::kTexture:
        push_if(Element::kTexture);
        push_if(Element::kL2);
        break;
      case Space::kReadOnly:
        push_if(Element::kReadOnly);
        push_if(Element::kL2);
        break;
      case Space::kConstant:
        push_if(Element::kConstL1);
        push_if(Element::kConstL15);
        push_if(Element::kL2);
        break;
      case Space::kShared:
      case Space::kScalar:
        throw std::invalid_argument("gpu: space has no cache chain");
    }
  } else {
    switch (space) {
      case Space::kGlobal:
        if (!flags.bypass_l1) push_if(Element::kVL1);
        push_if(Element::kL2);
        push_if(Element::kL3);
        break;
      case Space::kScalar:
        push_if(Element::kSL1D);
        push_if(Element::kL2);
        push_if(Element::kL3);
        break;
      case Space::kTexture:
      case Space::kReadOnly:
      case Space::kConstant:
        // AMD routes these through the vector L1 path.
        if (!flags.bypass_l1) push_if(Element::kVL1);
        push_if(Element::kL2);
        push_if(Element::kL3);
        break;
      case Space::kShared:
        throw std::invalid_argument("gpu: space has no cache chain");
    }
  }

  // Resolve each chain element to its physical segment for this placement.
  // Elements without a backing cache instance (segment_for == nullptr) are
  // skipped at compile time, exactly as the per-load walk skipped them.
  for (std::size_t i = 0; i < chain_len; ++i) {
    SectoredCache* cache = segment_for(where, chain[i]);
    if (cache == nullptr) continue;
    path.levels[path.depth++] = {cache, chain[i], rounded_latency(chain[i])};
  }
  path.terminal = Element::kDeviceMem;
  path.terminal_latency = rounded_latency(Element::kDeviceMem);
  return path;
}

namespace {

/// The per-load body of a batched pass, specialised at compile time on
/// whether served counters and latency recording are wanted, so the bulk of
/// a pass (typically thousands of loads past the record limit) runs with no
/// per-load capacity checks at all.
template <bool kServed, bool kRecord>
std::uint64_t pass_loop(const AccessPath& path, std::uint64_t base,
                        std::uint64_t stride_bytes, std::uint64_t first,
                        std::uint64_t last, NoiseModel& noise,
                        std::uint64_t& dmem_accesses, ElementCounts* served,
                        std::vector<std::uint32_t>* record) {
  std::uint64_t total_cycles = 0;
  for (std::uint64_t i = first; i < last; ++i) {
    const std::uint64_t address = base + i * stride_bytes;
    Element served_by = path.terminal;
    std::uint32_t base_latency = path.terminal_latency;
    bool hit = false;
    for (std::size_t level = 0; level < path.depth; ++level) {
      const CacheAccess a = path.levels[level].cache->access(address);
      if (a.sector_hit) {
        served_by = path.levels[level].element;
        base_latency = path.levels[level].latency;
        hit = true;
        break;
      }
    }
    if (!hit && path.terminal_is_dmem) ++dmem_accesses;
    const std::uint32_t latency = noise.sample_rounded(base_latency);
    total_cycles += latency;
    if constexpr (kServed) ++(*served)[served_by];
    if constexpr (kRecord) record->push_back(latency);
  }
  return total_cycles;
}

}  // namespace

std::uint64_t Gpu::run_pass(const AccessPath& path, std::uint64_t base,
                            std::uint64_t stride_bytes, std::uint64_t steps,
                            ElementCounts* served,
                            std::vector<std::uint32_t>* record,
                            std::uint64_t record_limit) {
  if (path.epoch != path_epoch_) {
    throw std::logic_error(
        "gpu: stale AccessPath (caches were rebuilt after compile_path)");
  }
  list_caches(path);
  // Recorded loads are a prefix of the pass; split there so the bulk loop
  // carries no record bookkeeping.
  std::uint64_t recorded = 0;
  if (record != nullptr && record->size() < record_limit) {
    recorded = std::min<std::uint64_t>(steps, record_limit - record->size());
  }
  // A first level that holds the whole walk serves every load of it, so
  // the deeper levels see none: such a pass replays on a path of any depth.
  if (path.depth > 0 &&
      path.levels[0].cache->replays(base, stride_bytes, steps) &&
      (path.depth == 1 || path.levels[0].cache->stream_held())) {
    return replay_pass(path, base, stride_bytes, steps, served, record,
                       recorded);
  }
  timed_loads_stepped_ += steps;
  std::uint64_t total_cycles = 0;
  if (recorded > 0) {
    total_cycles +=
        served != nullptr
            ? pass_loop<true, true>(path, base, stride_bytes, 0, recorded,
                                    noise_, dmem_accesses_, served, record)
            : pass_loop<false, true>(path, base, stride_bytes, 0, recorded,
                                     noise_, dmem_accesses_, served, record);
  }
  total_cycles +=
      served != nullptr
          ? pass_loop<true, false>(path, base, stride_bytes, recorded, steps,
                                   noise_, dmem_accesses_, served, record)
          : pass_loop<false, false>(path, base, stride_bytes, recorded, steps,
                                    noise_, dmem_accesses_, served, record);
  return total_cycles;
}

std::uint64_t Gpu::replay_pass(const AccessPath& path, std::uint64_t base,
                              std::uint64_t stride_bytes, std::uint64_t steps,
                              ElementCounts* served,
                              std::vector<std::uint32_t>* record,
                              std::uint64_t recorded) {
  // Only the recorded loads need their own latencies; the rest of the pass
  // is its hit and miss totals plus its summed noise, drawn after the
  // recorded loads' as the per-load loop draws it. A walk the level holds
  // whole hits on every load. Misses are served by the terminal: a deeper
  // path replays only a walk its first level holds whole.
  const AccessPath::Level& level = path.levels[0];
  SectoredCache& cache = *level.cache;
  const bool held = cache.stream_held();
  std::uint64_t total_cycles = 0;
  std::uint64_t recorded_hits = 0;
  for (std::uint64_t i = 0; i < recorded; ++i) {
    const bool hit = held || cache.replay_hits(base + i * stride_bytes);
    recorded_hits += hit ? 1 : 0;
    const std::uint32_t latency =
        noise_.sample_rounded(hit ? level.latency : path.terminal_latency);
    total_cycles += latency;
    record->push_back(latency);
  }
  const std::uint64_t misses = cache.replay_stream();
  const std::uint64_t hits = steps - misses;
  total_cycles += (hits - recorded_hits) * level.latency +
                  (misses - (recorded - recorded_hits)) *
                      path.terminal_latency +
                  noise_.noise_sum(steps - recorded);
  if (served != nullptr) {
    (*served)[level.element] += hits;
    (*served)[path.terminal] += misses;
  }
  if (path.terminal_is_dmem) dmem_accesses_ += misses;
  return total_cycles;
}

std::uint64_t Gpu::run_warm_pass(const AccessPath& path, std::uint64_t base,
                                 std::uint64_t stride_bytes,
                                 std::uint64_t steps) {
  if (path.epoch != path_epoch_) {
    throw std::logic_error(
        "gpu: stale AccessPath (caches were rebuilt after compile_path)");
  }
  list_caches(path);
  // A walk onto levels that hold no line of its range misses once per line
  // it reaches and never comes back: all of it is arithmetic.
  const std::uint64_t last = base + (steps == 0 ? 0 : steps - 1) * stride_bytes;
  bool closed_form = stride_bytes != 0 && steps != 0;
  for (std::size_t level = 0; level < path.depth; ++level) {
    const SectoredCache* cache = path.levels[level].cache;
    closed_form = closed_form && cache->takes_warm_streams() &&
                  cache->holds_no_line_of(base, last);
    for (std::size_t other = 0; other < level; ++other) {
      closed_form = closed_form && path.levels[other].cache != cache;
    }
  }

  std::uint64_t total_cycles = 0;
  if (!closed_form) {
    for (std::uint64_t i = 0; i < steps; ++i) {
      const std::uint64_t address = base + i * stride_bytes;
      std::uint32_t base_latency = path.terminal_latency;
      bool hit = false;
      for (std::size_t level = 0; level < path.depth; ++level) {
        const CacheAccess a = path.levels[level].cache->access(address);
        if (a.sector_hit) {
          base_latency = path.levels[level].latency;
          hit = true;
          break;
        }
      }
      if (!hit && path.terminal_is_dmem) ++dmem_accesses_;
      total_cycles += base_latency;
    }
    warm_loads_stepped_ += steps;
    return total_cycles;
  }

  // Level by level: each level's sector misses are the next level's stream,
  // and whatever misses the last level is served by the terminal.
  WarmStream stream{base, stride_bytes, steps, 0};
  std::uint64_t reaching = stream.count;
  for (std::size_t level = 0; level < path.depth; ++level) {
    SectoredCache& cache = *path.levels[level].cache;
    const std::uint64_t misses = cache.fill_warm_stream(stream);
    total_cycles += (reaching - misses) * path.levels[level].latency;
    reaching = misses;
    stream.granule_shift = std::max<std::uint32_t>(
        stream.granule_shift,
        static_cast<std::uint32_t>(
            std::countr_zero(cache.geometry().sector_bytes)));
  }
  if (path.terminal_is_dmem) dmem_accesses_ += reaching;
  return total_cycles + reaching * path.terminal_latency;
}

std::uint32_t Gpu::warm_access(const Placement& where, Space space,
                               std::uint64_t address, AccessFlags flags) {
  const AccessPath path = compile_path(where, space, flags);
  return static_cast<std::uint32_t>(
      run_warm_pass(path, address, /*stride_bytes=*/0, /*steps=*/1));
}

SectoredCache* Gpu::segment_for(const Placement& where, Element element) {
  if (element == Element::kL2) {
    if (l2_segments_.empty()) return nullptr;
    return &l2_segments_[spec_.l2_segment_of(where.sm)];
  }
  if (element == Element::kL3) {
    return l3_.get();
  }
  if (element == Element::kSL1D) {
    const std::uint32_t group =
        spec_.physical_cu(where.sm) / std::max<std::uint32_t>(spec_.sl1d_group_size, 1);
    const auto it = sl1d_.find(group);
    return it == sl1d_.end() ? nullptr : &it->second;
  }
  if (where.sm >= sm_caches_.size()) {
    throw std::out_of_range("gpu: SM index out of range");
  }
  const auto it = sm_caches_[where.sm].find(spec_.at(element).physical_group);
  if (it == sm_caches_[where.sm].end()) return nullptr;
  auto& segments = it->second.segments;
  // Cores are partitioned across segments in contiguous blocks.
  const std::uint32_t cores = std::max<std::uint32_t>(spec_.cores_per_sm, 1);
  const std::size_t index = std::min<std::size_t>(
      static_cast<std::size_t>(where.core) * segments.size() / cores,
      segments.size() - 1);
  return &segments[index];
}

double Gpu::level_latency(Element element) const {
  return spec_.at(element).latency_cycles;
}

std::uint32_t Gpu::rounded_latency(Element element) const {
  // Half-up rounding, matching NoiseModel::sample's treatment of a raw
  // double base latency.
  return static_cast<std::uint32_t>(spec_.at(element).latency_cycles + 0.5);
}

AccessResult Gpu::access_traced(const Placement& where, Space space,
                                std::uint64_t address, AccessFlags flags) {
  const AccessPath path = compile_path(where, space, flags);
  ElementCounts served;
  AccessResult result;
  result.latency = static_cast<std::uint32_t>(
      run_pass(path, address, /*stride_bytes=*/0, /*steps=*/1, &served));
  for (std::size_t i = 0; i < kElementCount; ++i) {
    if (served.raw()[i] != 0) {
      result.served_by = static_cast<Element>(i);
      break;
    }
  }
  return result;
}

std::uint32_t Gpu::access(const Placement& where, Space space,
                          std::uint64_t address, AccessFlags flags) {
  return access_traced(where, space, address, flags).latency;
}

void Gpu::list_caches(const AccessPath& path) {
  for (std::size_t level = 0; level < path.depth; ++level) {
    SectoredCache* cache = path.levels[level].cache;
    if (!cache->listed_) {
      cache->listed_ = true;
      flush_list_.push_back(cache);
    }
  }
}

void Gpu::flush_caches() {
  for (SectoredCache* cache : flush_list_) {
    fills_dropped_ += cache->fills_waiting();
    pages_written_ += cache->pages_written_;
    flushed_sets_ += cache->flush();
    cache->listed_ = false;
  }
  flushed_caches_ += flush_list_.size();
  flush_list_.clear();
}

std::uint64_t Gpu::miss_count(std::uint32_t sm, Element element) const {
  if (element == Element::kDeviceMem) return dmem_accesses_;
  std::uint64_t total = 0;
  if (element == Element::kL2) {
    for (const auto& segment : l2_segments_) total += segment.misses();
    return total;
  }
  if (element == Element::kL3) {
    return l3_ ? l3_->misses() : 0;
  }
  if (element == Element::kSL1D) {
    for (const auto& [group, cache] : sl1d_) total += cache.misses();
    return total;
  }
  if (sm >= sm_caches_.size()) return 0;
  const auto it = sm_caches_[sm].find(spec_.at(element).physical_group);
  if (it == sm_caches_[sm].end()) return 0;
  for (const auto& segment : it->second.segments) total += segment.misses();
  return total;
}

std::uint64_t Gpu::hit_count(std::uint32_t sm, Element element) const {
  std::uint64_t total = 0;
  if (element == Element::kL2) {
    for (const auto& segment : l2_segments_) total += segment.hits();
    return total;
  }
  if (element == Element::kL3) {
    return l3_ ? l3_->hits() : 0;
  }
  if (element == Element::kSL1D) {
    for (const auto& [group, cache] : sl1d_) total += cache.hits();
    return total;
  }
  if (element == Element::kDeviceMem) return 0;
  if (sm >= sm_caches_.size()) return 0;
  const auto it = sm_caches_[sm].find(spec_.at(element).physical_group);
  if (it == sm_caches_[sm].end()) return 0;
  for (const auto& segment : it->second.segments) total += segment.hits();
  return total;
}

void Gpu::reset_counters() {
  for (auto& sm : sm_caches_) {
    for (auto& [group, cache] : sm) {
      for (auto& segment : cache.segments) segment.reset_counters();
    }
  }
  for (auto& segment : l2_segments_) segment.reset_counters();
  if (l3_) l3_->reset_counters();
  for (auto& [group, cache] : sl1d_) cache.reset_counters();
  dmem_accesses_ = 0;
}

std::uint32_t Gpu::scratchpad_access() {
  const Element e = spec_.vendor == Vendor::kNvidia ? Element::kSharedMem
                                                    : Element::kLds;
  return noise_.sample(level_latency(e));
}

}  // namespace mt4g::sim
