#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace mt4g::sim {
namespace {

// Counting over a warm stream's progression. Block sizes are powers of two
// given as shifts; `end` bounds are exclusive addresses.

/// ceil(span / stride); strides are powers of two in most walks.
std::uint64_t ceil_div(std::uint64_t span, std::uint64_t stride) {
  if (std::has_single_bit(stride)) {
    return (span + stride - 1) >> std::countr_zero(stride);
  }
  return span / stride + (span % stride != 0);
}

/// Loads of the progression below @p end.
std::uint64_t loads_below(const WarmStream& w, std::uint64_t end) {
  if (end <= w.base) return 0;
  return std::min(w.count, ceil_div(end - w.base, w.stride));
}

/// Distinct 2^shift-byte blocks the loads below @p end fall into. A stride
/// below the block size visits every block between the first and the last
/// load; a larger one puts each load in a block of its own.
std::uint64_t blocks_below(const WarmStream& w, std::uint32_t shift,
                           std::uint64_t end) {
  const std::uint64_t loads = loads_below(w, end);
  if (loads == 0 || w.stride >= (1ULL << shift)) return loads;
  return ((w.base + (loads - 1) * w.stride) >> shift) - (w.base >> shift) + 1;
}

/// Address of the first load at or above @p address.
std::uint64_t first_load_from(const WarmStream& w, std::uint64_t address) {
  if (address <= w.base) return w.base;
  return w.base + ceil_div(address - w.base, w.stride) * w.stride;
}

}  // namespace

SectoredCache::SectoredCache(const CacheGeometry& geometry)
    : geometry_(geometry) {
  if (geometry_.line_bytes == 0 || geometry_.sector_bytes == 0 ||
      geometry_.size_bytes == 0) {
    throw std::invalid_argument("cache: zero-sized geometry");
  }
  if (geometry_.sector_bytes > geometry_.line_bytes ||
      geometry_.line_bytes % geometry_.sector_bytes != 0) {
    throw std::invalid_argument("cache: sector must divide line");
  }
  if (geometry_.size_bytes % geometry_.line_bytes != 0) {
    throw std::invalid_argument("cache: size must be a multiple of line size");
  }
  sectors_per_line_ = geometry_.line_bytes / geometry_.sector_bytes;
  if (sectors_per_line_ > 32) {
    throw std::invalid_argument("cache: more than 32 sectors per line");
  }
  const std::uint64_t lines = geometry_.num_lines();
  // Keep the exact capacity even when the nominal associativity does not
  // divide the line count (e.g. a 238 KiB "true L1"): choose the largest set
  // count <= lines/associativity that divides the line count, so that
  // sets * ways == lines holds exactly. Falls back to fully associative.
  const std::uint64_t max_ways = std::min<std::uint64_t>(
      std::max<std::uint32_t>(geometry_.associativity, 1), lines);
  std::uint64_t sets = std::max<std::uint64_t>(lines / max_ways, 1);
  while (sets > 1 && lines % sets != 0) --sets;
  num_sets_ = static_cast<std::uint32_t>(sets);
  ways_per_set_ = static_cast<std::uint32_t>(lines / sets);
  const std::size_t total = static_cast<std::size_t>(num_sets_) * ways_per_set_;
  tags_.assign(total, kInvalidTag);
  masks_.assign(total, 0);
  stamps_.assign(total, 0);
  hints_.assign(num_sets_, 0);
  touch_marks_.assign(num_sets_, 0);
  // Reserving the worst case up front keeps the touched-set push in access()
  // allocation-free; 4 bytes per set is smaller than the hint array.
  touched_.reserve(num_sets_);

  if (std::has_single_bit(geometry_.line_bytes)) {
    line_shift_ = static_cast<std::uint32_t>(
        std::countr_zero(geometry_.line_bytes));
  }
  if (std::has_single_bit(geometry_.sector_bytes)) {
    sector_shift_ = static_cast<std::uint32_t>(
        std::countr_zero(geometry_.sector_bytes));
  }
  if (std::has_single_bit(num_sets_)) {
    set_mask_ = num_sets_ - 1;
  }
  sets_inv_ = 1.0 / static_cast<double>(num_sets_);
}

CacheAccess SectoredCache::peek(std::uint64_t address) const {
  const std::uint64_t line = line_of(address);
  const std::uint32_t set = set_of(line);
  const std::uint32_t sector = sector_of(address);
  CacheAccess result;
  const std::size_t base = static_cast<std::size_t>(set) * ways_per_set_;
  for (std::uint32_t w = 0; w < ways_per_set_; ++w) {
    if (tags_[base + w] == line) {
      result.line_hit = true;
      result.sector_hit = (masks_[base + w] >> sector) & 1u;
      break;
    }
  }
  return result;
}

std::uint64_t SectoredCache::fill_warm_stream(const WarmStream& stream) {
  const std::uint32_t g = stream.granule_shift;
  const std::uint64_t last = stream.base + (stream.count - 1) * stream.stride;
  // The stream: the first load of each visited granule. Each lands in a new
  // granule, so it misses unless an earlier stream load filled its sector:
  // the misses are the distinct sectors, one per granule when a sector is
  // no larger than a granule.
  const std::uint64_t accesses = blocks_below(stream, g, last + 1);
  const std::uint64_t misses =
      sector_shift_ <= g ? accesses : blocks_below(stream, sector_shift_,
                                                   last + 1);
  const std::uint64_t stamp0 = stamp_;
  stamp_ += accesses;
  hits_ += accesses - misses;
  misses_ += misses;
  const std::uint64_t last_load =
      stream.stride >= (1ULL << g)
          ? last
          : first_load_from(stream, (last >> g) << g);
  lo_line_ = std::min(lo_line_, line_of(stream.base));
  hi_line_ = std::max(hi_line_, line_of(last_load));
  if (stream.stride <= geometry_.line_bytes &&
      (1ULL << g) <= geometry_.line_bytes) {
    fill_dense_lines(stream, last, stamp0);
  } else {
    fill_sparse_lines(stream, accesses, stamp0);
  }
  return misses;
}

void SectoredCache::fill_dense_lines(const WarmStream& stream,
                                     std::uint64_t last,
                                     std::uint64_t stamp0) {
  // Stride and granule fit in a line: the stream reaches every line from
  // the first load's to the last load's, and the first load in a line is
  // the first of its granule. A set receives its lines in line order, each
  // newer than anything it held, so its t-th line lands in the t-th way of
  // its victim order (ascending stamp, empty ways first by index), rotating
  // once all ways are taken. Only the last `ways` lines of a set survive,
  // and those are all that is written, set by set.
  const std::uint32_t g = stream.granule_shift;
  const std::uint32_t l = line_shift_;
  const std::uint64_t first_line = stream.base >> l;
  const std::uint64_t last_line = last >> l;
  const std::uint64_t lines = last_line - first_line + 1;
  const std::uint64_t sets = num_sets_;
  const std::uint64_t ways = ways_per_set_;
  const std::uint32_t full_mask =
      static_cast<std::uint32_t>((2ULL << (sectors_per_line_ - 1)) - 1);
  // Every sector between a line's first and last stream load holds a
  // stream load when neither stride nor granule exceeds the sector.
  const bool contiguous =
      std::max<std::uint64_t>(stream.stride, 1ULL << g) <=
      geometry_.sector_bytes;
  const auto mask_of = [&](std::uint64_t line) -> std::uint32_t {
    const std::uint64_t from = std::max(stream.base, line << l);
    const std::uint64_t to = std::min(last, ((line + 1) << l) - 1);
    if (contiguous) {
      if (from == line << l && to == ((line + 1) << l) - 1) return full_mask;
      const std::uint32_t lo = sector_of(from);
      const std::uint32_t hi = sector_of(to);
      return static_cast<std::uint32_t>((2ULL << hi) - (1ULL << lo));
    }
    std::uint32_t mask = 0;
    if (stream.stride >= (1ULL << g)) {
      for (std::uint64_t a = first_load_from(stream, from); a <= to;
           a += stream.stride) {
        mask |= 1u << sector_of(a);
      }
    } else {
      for (std::uint64_t block = from >> g; block <= to >> g; ++block) {
        mask |= 1u << sector_of(first_load_from(stream, block << g));
      }
    }
    return mask;
  };
  const auto stamp_of = [&](std::uint64_t line) {
    return stamp0 + blocks_below(stream, g, (line + 1) << l);
  };

  // Sets of the last min(lines, sets) lines, walked backwards from the
  // last line: the last `lines % sets` of them hold one line more.
  const std::uint64_t per_set = lines / sets;
  const std::uint64_t extra = lines % sets;
  const std::uint64_t touched = std::min(lines, sets);
  // Victim-order position of a set's last line: (count - 1) % ways.
  const std::uint64_t last_slot_more = per_set % ways;
  const std::uint64_t last_slot = per_set == 0 ? 0 : (per_set - 1) % ways;
  std::vector<std::uint32_t> order;
  std::uint32_t set = set_of(last_line);
  for (std::uint64_t i = 0; i < touched; ++i) {
    const std::uint64_t line = last_line - i;
    const std::uint64_t count = i < extra ? per_set + 1 : per_set;
    const std::size_t row = static_cast<std::size_t>(set) * ways;
    // An untouched set is empty: its victim order is the way order.
    // Otherwise sort the ways by stamp (insertion sort: stable, so empty
    // ways stay in index order, and sets are a few ways wide).
    const bool prefilled = touch_marks_[set] == generation_;
    if (prefilled) {
      order.resize(ways);
      for (std::uint32_t w = 0; w < ways; ++w) {
        std::uint32_t at = w;
        for (; at > 0 && stamps_[row + order[at - 1]] > stamps_[row + w];
             --at) {
          order[at] = order[at - 1];
        }
        order[at] = w;
      }
    }
    std::uint64_t slot = i < extra ? last_slot_more : last_slot;
    hints_[set] = static_cast<std::uint32_t>(prefilled ? order[slot] : slot);
    const std::uint64_t keep = std::min(count, ways);
    for (std::uint64_t k = 0; k < keep; ++k) {
      const std::uint64_t kept = line - k * sets;
      const std::size_t way = row + (prefilled ? order[slot] : slot);
      tags_[way] = kept;
      masks_[way] = mask_of(kept);
      stamps_[way] = stamp_of(kept);
      slot = slot == 0 ? ways - 1 : slot - 1;
    }
    set = set == 0 ? num_sets_ - 1 : set - 1;
  }
  // Touched sets join the list in first-touch order: line order.
  set = set_of(first_line);
  for (std::uint64_t i = 0; i < touched; ++i) {
    touch(set);
    set = set + 1 == num_sets_ ? 0 : set + 1;
  }
}

void SectoredCache::fill_sparse_lines(const WarmStream& stream,
                                      std::uint64_t accesses,
                                      std::uint64_t stamp0) {
  // Stride or granule exceeds the line: every stream load opens a line of
  // its own and fills one sector of it.
  const std::uint32_t g = stream.granule_shift;
  const bool every_load = stream.stride >= (1ULL << g);
  for (std::uint64_t m = 0; m < accesses; ++m) {
    const std::uint64_t address =
        every_load
            ? stream.base + m * stream.stride
            : first_load_from(stream, ((stream.base >> g) + m) << g);
    const std::uint64_t line = line_of(address);
    const std::uint32_t set = set_of(line);
    const std::size_t base = static_cast<std::size_t>(set) * ways_per_set_;
    touch(set);
    const std::size_t victim = victim_way(base);
    tags_[victim] = line;
    masks_[victim] = 1u << sector_of(address);
    stamps_[victim] = stamp0 + m + 1;
    hints_[set] = static_cast<std::uint32_t>(victim - base);
  }
}

void SectoredCache::flush() {
  lo_line_ = ~0ULL;
  hi_line_ = 0;
  // Stamps must be zeroed too: access() relies on empty ways carrying
  // stamp 0 so the victim scan can be a pure minimum search. Masks of empty
  // ways are never read before the way is refilled. Stale hints are safe
  // (the hinted way's tag simply won't match).
  if (touched_.empty()) {
    stamp_ = 0;
    return;
  }
  if (touched_.size() >= num_sets_ / 2) {
    // Dense: a contiguous fill beats scattered per-set clears once about
    // half the sets are dirty.
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(stamps_.begin(), stamps_.end(), 0);
  } else {
    for (const std::uint32_t set : touched_) {
      const std::size_t base = static_cast<std::size_t>(set) * ways_per_set_;
      for (std::uint32_t w = 0; w < ways_per_set_; ++w) {
        tags_[base + w] = kInvalidTag;
        stamps_[base + w] = 0;
      }
    }
  }
  touched_.clear();
  ++generation_;
  stamp_ = 0;
}

void SectoredCache::capture_rows(CacheSnapshot& out) const {
  const std::size_t rows = out.sets.size();
  out.tags.resize(rows * ways_per_set_);
  out.masks.resize(rows * ways_per_set_);
  out.stamps.resize(rows * ways_per_set_);
  out.hints.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t src = static_cast<std::size_t>(out.sets[i]) *
                            ways_per_set_;
    const std::size_t dst = i * ways_per_set_;
    for (std::uint32_t w = 0; w < ways_per_set_; ++w) {
      out.tags[dst + w] = tags_[src + w];
      out.masks[dst + w] = masks_[src + w];
      out.stamps[dst + w] = stamps_[src + w];
    }
    out.hints[i] = hints_[out.sets[i]];
  }
  out.stamp = stamp_;
  out.hits = hits_;
  out.misses = misses_;
}

void SectoredCache::snapshot(CacheSnapshot& out) const {
  out.clear();
  out.sets.assign(touched_.begin(), touched_.end());
  capture_rows(out);
}

void SectoredCache::snapshot_addresses(std::uint64_t base, std::uint64_t stride,
                                       std::uint64_t steps,
                                       CacheSnapshot& out) const {
  out.clear();
  out.sets.reserve(steps);
  for (std::uint64_t i = 0; i < steps; ++i) {
    out.sets.push_back(set_of(line_of(base + i * stride)));
  }
  std::sort(out.sets.begin(), out.sets.end());
  out.sets.erase(std::unique(out.sets.begin(), out.sets.end()),
                 out.sets.end());
  capture_rows(out);
}

void SectoredCache::restore(const CacheSnapshot& snap) {
  const std::size_t rows = snap.sets.size();
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint32_t set = snap.sets[i];
    const std::size_t dst = static_cast<std::size_t>(set) * ways_per_set_;
    const std::size_t src = i * ways_per_set_;
    for (std::uint32_t w = 0; w < ways_per_set_; ++w) {
      tags_[dst + w] = snap.tags[src + w];
      masks_[dst + w] = snap.masks[src + w];
      stamps_[dst + w] = snap.stamps[src + w];
    }
    hints_[set] = snap.hints[i];
    // Keep the touched-set invariant: a restored set is dirty relative to a
    // flushed cache, so the next flush must clear it.
    touch(set);
  }
  stamp_ = snap.stamp;
  hits_ = snap.hits;
  misses_ = snap.misses;
}

}  // namespace mt4g::sim
