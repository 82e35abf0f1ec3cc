#include "sim/gpu.hpp"

#include <algorithm>
#include <bit>
#include <optional>
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

/// Loads of a pass of @p steps that record their latency: a prefix of it,
/// until @p record holds @p record_limit.
std::uint64_t recorded_loads(const std::vector<std::uint32_t>* record,
                             std::uint64_t record_limit, std::uint64_t steps) {
  if (record == nullptr || record->size() >= record_limit) return 0;
  return std::min<std::uint64_t>(steps, record_limit - record->size());
}

}  // namespace

std::uint64_t Gpu::run_pass(const AccessPath& path, std::uint64_t base,
                            std::uint64_t stride_bytes, std::uint64_t steps,
                            ElementCounts* served,
                            std::vector<std::uint32_t>* record,
                            std::uint64_t record_limit) {
  list_caches(path);
  // Recorded loads are a prefix of the pass; split there so the bulk loop
  // carries no record bookkeeping.
  const std::uint64_t recorded = recorded_loads(record, record_limit, steps);
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

std::uint64_t Gpu::run_last_pass(const AccessPath& path, std::uint64_t base,
                                 std::uint64_t stride_bytes,
                                 std::uint64_t steps, ElementCounts* served,
                                 std::vector<std::uint32_t>* record,
                                 std::uint64_t record_limit) {
  list_caches(path);
  const std::size_t depth = path.depth;
  std::array<WarmStream, AccessPath::kMaxLevels> streams;
  const bool cold =
      walk_streams(path, base, stride_bytes, steps, false, streams);
  const SectoredCache* first = depth > 0 ? path.levels[0].cache : nullptr;
  const std::optional<WarmStream> fill =
      cold || first == nullptr ? std::nullopt : first->sole_fill();
  const bool warm =
      fill && fill->granule_shift == 0 && fill->base == base &&
      fill->stride == stride_bytes && steps > 0 && steps <= fill->count &&
      (depth == 1 || first->holds_every_line() ||
       (path.levels[1].cache->holds_every_line() &&
        path.levels[1].cache->first_fill() ==
            WarmStream{base, stride_bytes, fill->count,
                       first->sector_shift_}));
  const bool held = warm && first->holds_every_line();  // hits throughout
  const bool dense =
      warm && !held && stride_bytes <= first->geometry_.line_bytes;
  const std::uint64_t ways = warm ? first->ways_per_set_ : 0;
  const bool counted =
      warm && first->num_sets_ <= kCountedSets && ways < 0xFFFF;
  if (!cold && !held && !dense && !counted) {
    const std::uint64_t cycles = run_pass(path, base, stride_bytes, steps,
                                          served, record, record_limit);
    flush_caches();
    return cycles;
  }
  // A dense fill reaches every line from its first to its last: a set
  // holds lines / sets of them, and one more in the sets of the first
  // lines % sets. A sparse fill opens a line per load: its lines per set,
  // up to ways + 1, in the first num_sets_ entries of lines_in_set, the
  // only ones set and read.
  const std::uint64_t sets = warm ? first->num_sets_ : 1;
  const std::uint64_t lines =
      warm ? first->hi_line_ - first->lo_line_ + 1 : 0;
  const std::uint32_t first_set = warm ? first->set_of(first->lo_line_) : 0;
  std::array<std::uint16_t, kCountedSets> lines_in_set;
  if (warm && !held && !dense) {
    std::fill_n(lines_in_set.begin(), first->num_sets_, 0);
    for (std::uint64_t m = 0; m < fill->count; ++m) {
      std::uint16_t& lines =
          lines_in_set[first->set_of(first->line_of(base + m * stride_bytes))];
      if (lines <= ways) ++lines;
    }
  }
  const auto same_sector = [&](std::uint64_t j, const SectoredCache* cache) {
    const std::uint64_t address = base + j * stride_bytes;
    return j > 0 && ((address - stride_bytes) >> cache->sector_shift_) ==
                        (address >> cache->sector_shift_);
  };
  // The level that serves load j: `depth` for the terminal.
  const auto level_of = [&](std::uint64_t j) -> std::size_t {
    if (held) return 0;
    if (warm) {
      const std::uint32_t set =
          first->set_of(first->line_of(base + j * stride_bytes));
      const std::uint64_t position =
          set >= first_set ? set - first_set : set + sets - first_set;
      const std::uint64_t in_set =
          dense ? lines / sets + (position < lines % sets ? 1 : 0)
                : lines_in_set[set];
      return in_set <= ways || same_sector(j, first) ? 0 : 1;
    }
    std::size_t level = 0;
    while (level < depth && !same_sector(j, path.levels[level].cache)) {
      ++level;
    }
    return level;
  };
  // The loads each level serves, the terminal last.
  std::array<std::uint64_t, AccessPath::kMaxLevels + 1> total{};
  if (cold) {
    total[depth] = steps;
    for (std::size_t level = 0; level < depth; ++level) {
      const auto [loads, misses] =
          path.levels[level].cache->warm_counts(streams[level]);
      total[level] = loads - misses;
      total[depth] = misses;
    }
  } else if (held) {
    total[0] = steps;
  } else if (dense) {
    total[1] = first->prefix_misses({base, stride_bytes, steps, 0});
    total[0] = steps - total[1];
  } else {
    for (std::uint64_t j = 0; j < steps; ++j) ++total[level_of(j)];
  }

  // The recorded prefix load by load, then the rest in bulk: its base
  // latencies by level, and its noise drawn after the recorded loads', as
  // the per-load loop draws it.
  const std::uint64_t recorded = recorded_loads(record, record_limit, steps);
  const auto latency_of = [&](std::size_t level) {
    return level < depth ? path.levels[level].latency : path.terminal_latency;
  };
  std::array<std::uint64_t, AccessPath::kMaxLevels + 1> rest = total;
  std::uint64_t cycles = 0;
  for (std::uint64_t j = 0; j < recorded; ++j) {
    const std::size_t level = level_of(j);
    --rest[level];
    const std::uint32_t latency = noise_.sample_rounded(latency_of(level));
    cycles += latency;
    record->push_back(latency);
  }
  cycles += noise_.noise_sum(steps - recorded);
  std::uint64_t reaching = steps;
  for (std::size_t level = 0; level <= depth; ++level) {
    cycles += rest[level] * latency_of(level);
    if (served != nullptr) {
      (*served)[level < depth ? path.levels[level].element : path.terminal] +=
          total[level];
    }
    if (level == depth) break;
    SectoredCache& cache = *path.levels[level].cache;
    cache.hits_ += total[level];
    cache.misses_ += reaching - total[level];
    reaching -= total[level];
  }
  if (path.terminal_is_dmem) dmem_accesses_ += total[depth];
  flush_caches();
  return cycles;
}

std::uint64_t Gpu::run_warm_pass(const AccessPath& path, std::uint64_t base,
                                 std::uint64_t stride_bytes,
                                 std::uint64_t steps) {
  list_caches(path);
  // A walk onto levels that hold no line of its range misses once per line
  // it reaches and never comes back: all of it is arithmetic.
  std::array<WarmStream, AccessPath::kMaxLevels> streams;
  std::uint64_t total_cycles = 0;
  if (!walk_streams(path, base, stride_bytes, steps, true, streams)) {
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
  std::uint64_t reaching = steps;
  for (std::size_t level = 0; level < path.depth; ++level) {
    const std::uint64_t misses =
        path.levels[level].cache->fill_warm_stream(streams[level]);
    total_cycles += (reaching - misses) * path.levels[level].latency;
    reaching = misses;
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
  if (path.epoch != path_epoch_) {
    throw std::logic_error(
        "gpu: stale AccessPath (caches were rebuilt after compile_path)");
  }
  for (std::size_t level = 0; level < path.depth; ++level) {
    SectoredCache* cache = path.levels[level].cache;
    if (!cache->listed_) {
      cache->listed_ = true;
      flush_list_.push_back(cache);
    }
  }
}

bool Gpu::walk_streams(
    const AccessPath& path, std::uint64_t base, std::uint64_t stride_bytes,
    std::uint64_t steps, bool fill,
    std::array<WarmStream, AccessPath::kMaxLevels>& streams) const {
  WarmStream stream{base, stride_bytes, steps, 0};
  bool closed_form = stride_bytes != 0 && steps != 0;
  for (std::size_t level = 0; closed_form && level < path.depth; ++level) {
    const SectoredCache* cache = path.levels[level].cache;
    closed_form = fill ? cache->takes_warm_stream(stream)
                       : cache->counts_warm_stream(stream);
    for (std::size_t other = 0; other < level; ++other) {
      closed_form = closed_form && path.levels[other].cache != cache;
    }
    streams[level] = stream;
    stream.granule_shift = std::max(stream.granule_shift, cache->sector_shift_);
  }
  return closed_form;
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
