#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <new>
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
  // Pages of whole sets, a power-of-two number of them: about kPageWays
  // ways, or the whole cache when it is smaller.
  const std::uint64_t sets_per_page = std::min<std::uint64_t>(
      std::bit_floor(std::max<std::uint32_t>(kPageWays / ways_per_set_, 1)),
      std::bit_ceil<std::uint64_t>(num_sets_));
  page_shift_ = static_cast<std::uint32_t>(std::countr_zero(sets_per_page));
  page_mask_ = static_cast<std::uint32_t>(sets_per_page - 1);
  page_ways_ = static_cast<std::size_t>(sets_per_page) * ways_per_set_;
  pages_.resize((num_sets_ + sets_per_page - 1) >> page_shift_);

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

void SectoredCache::make_page(Page& page) const {
  // One allocation holding two arrays made in it by placement new: tags and
  // stamps (64-bit), then masks and hints (32-bit), all value-initialised.
  const std::size_t narrow = page_ways_ + sets_per_page();
  page.storage =
      std::make_unique_for_overwrite<std::byte[]>(16 * page_ways_ + 4 * narrow);
  std::byte* const raw = page.storage.get();
  page.tags = ::new (raw) std::uint64_t[2 * page_ways_]();
  page.stamps = page.tags + page_ways_;
  page.masks = ::new (raw + 16 * page_ways_) std::uint32_t[narrow]();
  page.hints = page.masks + page_ways_;
  std::fill_n(page.tags, page_ways_, kInvalidTag);
}

bool SectoredCache::operator==(const SectoredCache& other) const {
  // Every set (the lines 0 .. num_sets - 1 map to all of them), as
  // capture_rows reads it (a page never written reads as first written),
  // with the masks of empty ways and the hints of empty sets zeroed.
  const auto logical = [](const SectoredCache& cache, CacheSnapshot& out) {
    cache.snapshot_addresses(0, cache.geometry_.line_bytes, cache.num_sets_,
                             out);
    const std::size_t ways = cache.ways_per_set_;
    for (std::size_t i = 0; i < out.sets.size(); ++i) {
      bool empty = true;
      for (std::size_t w = i * ways; w < (i + 1) * ways; ++w) {
        if (out.tags[w] == kInvalidTag) {
          out.masks[w] = 0;
        } else {
          empty = false;
        }
      }
      if (empty) out.hints[i] = 0;
    }
  };
  const bool same_shape = geometry_ == other.geometry_;
  CacheSnapshot mine;
  CacheSnapshot theirs;
  if (same_shape) {
    logical(*this, mine);
    logical(other, theirs);
  }
  return same_shape && lo_line_ == other.lo_line_ &&
         hi_line_ == other.hi_line_ && mine == theirs;
}

CacheAccess SectoredCache::peek(std::uint64_t address) const {
  if (fill_pending_) write_fill();
  const std::uint64_t line = line_of(address);
  const std::uint32_t set = set_of(line);
  const std::uint32_t sector = sector_of(address);
  CacheAccess result;
  const Page& page = pages_[set >> page_shift_];
  if (page.tags == nullptr) return result;
  const Row r = row_at(page, set);
  for (std::uint32_t w = 0; w < ways_per_set_; ++w) {
    if (r.tags[w] == line) {
      result.line_hit = true;
      result.sector_hit = (r.masks[w] >> sector) & 1u;
      break;
    }
  }
  return result;
}

std::uint64_t SectoredCache::fill_warm_stream(const WarmStream& stream) {
  if (fill_pending_) write_fill();
  const std::uint32_t g = stream.granule_shift;
  const std::uint64_t last = stream.base + (stream.count - 1) * stream.stride;
  const bool onto_empty = lo_line_ > hi_line_;
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
  // Onto an empty cache the fill waits for its first reader. The kept row
  // is unset, so access() meets the pending fill on a set change.
  if (onto_empty) {
    last_set_ = ~0u;
  } else {
    fill_lines(stream, last, accesses, stamp0, /*onto_empty=*/false);
  }
  // After the fill: fill_dense_lines reads the range from before the stream.
  const std::uint64_t last_load =
      stream.stride >= (1ULL << g)
          ? last
          : first_load_from(stream, (last >> g) << g);
  lo_line_ = std::min(lo_line_, line_of(stream.base));
  hi_line_ = std::max(hi_line_, line_of(last_load));
  stream_base_ = stream.base;
  stream_stride_ = stream.stride;
  stream_count_ = stream.count;
  stream_stamp_ = stamp_;
  stream_granule_ = static_cast<std::uint8_t>(g);
  stream_replays_ =
      onto_empty && g == 0 && stream.stride <= geometry_.line_bytes;
  fill_pending_ = onto_empty;
  return misses;
}

void SectoredCache::write_fill() const {
  // Nothing moved the clock since the fill but replays of it, which leave
  // what the same fill started that many loads later leaves.
  fill_pending_ = false;
  const WarmStream stream{stream_base_, stream_stride_, stream_count_,
                          stream_granule_};
  const std::uint64_t last = stream.base + (stream.count - 1) * stream.stride;
  const std::uint64_t accesses =
      blocks_below(stream, stream_granule_, last + 1);
  fill_lines(stream, last, accesses, stream_stamp_ - accesses,
             /*onto_empty=*/true);
}

void SectoredCache::fill_lines(const WarmStream& stream, std::uint64_t last,
                               std::uint64_t accesses, std::uint64_t stamp0,
                               bool onto_empty) const {
  if (stream.stride <= geometry_.line_bytes &&
      (1ULL << stream.granule_shift) <= geometry_.line_bytes) {
    fill_dense_lines(stream, last, stamp0, onto_empty);
  } else {
    fill_sparse_lines(stream, accesses, stamp0, onto_empty);
  }
}

SectoredCache::StreamLines SectoredCache::stream_lines() const {
  StreamLines lines;
  lines.first = stream_base_ >> line_shift_;
  lines.count = ((stream_base_ + (stream_count_ - 1) * stream_stride_) >>
                 line_shift_) - lines.first + 1;
  lines.per_set = lines.count / num_sets_;
  lines.extra = lines.count % num_sets_;
  return lines;
}

bool SectoredCache::replay_hits(std::uint64_t address) const {
  // A set holding at most `ways` lines keeps them all. In any other set
  // each line was evicted before the walk comes back to it, so a load hits
  // only when the load before it, in this visit, filled its sector.
  const StreamLines lines = stream_lines();
  if (lines.in_set_of(line_of(address) - lines.first, num_sets_) <=
      ways_per_set_) {
    return true;
  }
  return address != stream_base_ &&
         ((address - stream_stride_) >> sector_shift_) ==
             (address >> sector_shift_);
}

std::uint64_t SectoredCache::replay_stream() {
  // The stream is dense, so it visits every line from its first to its
  // last, and a set receives its lines in line order. A set holding more
  // than `ways` of them is always missing the line the walk comes back to
  // (its `ways` most recent lines are the ones before it), so it misses
  // each sector of each of its lines once: the first load of the sector.
  const std::uint64_t steps = stream_count_;
  // A pending fill held whole hits on every load, and replaying it leaves
  // what the same fill started `steps` loads later would: it stays pending.
  if (fill_pending_ && stream_held()) {
    stamp_ += steps;
    stream_stamp_ = stamp_;
    hits_ += steps;
    return 0;
  }
  if (fill_pending_) write_fill();
  const StreamLines lines = stream_lines();
  const std::uint64_t sets = num_sets_;
  const std::uint64_t ways = ways_per_set_;
  const WarmStream stream{stream_base_, stream_stride_, stream_count_, 0};
  const auto sectors_below = [&](std::uint64_t line) {
    return blocks_below(stream, sector_shift_, line << line_shift_);
  };
  std::uint64_t misses = 0;
  if (lines.per_set > ways) {
    misses = sectors_below(lines.first + lines.count);
  } else if (lines.per_set == ways && lines.extra > 0) {
    // Only the sets of the first `extra` lines of each round hold more.
    for (std::uint64_t round = 0; round <= lines.per_set; ++round) {
      const std::uint64_t from = lines.first + round * sets;
      misses += sectors_below(from + lines.extra) - sectors_below(from);
    }
  }
  stamp_ += steps;
  stream_stamp_ = stamp_;
  hits_ += steps - misses;
  misses_ += misses;

  // Each line's last load comes `steps` loads after the one before. In a
  // set holding at most `ways` lines they sit in its first ways (the fill
  // found it empty) and stay. In any other set the ways rotate: lines
  // arrive in the set's victim order, which is the way order starting
  // after the hinted way (fill_dense_lines' rotation), so `count` arrivals
  // move every line `count` ways on.
  std::uint32_t set = set_of(lines.first);
  const std::uint64_t touched = std::min(lines.count, sets);
  for (std::uint64_t position = 0; position < touched; ++position) {
    const Row r = row(set);
    const std::uint64_t count = lines.in_set_of(position, sets);
    if (count > ways) {
      const std::uint64_t shift = count % ways;
      std::rotate(r.tags, r.tags + ways - shift, r.tags + ways);
      std::rotate(r.masks, r.masks + ways - shift, r.masks + ways);
      std::rotate(r.stamps, r.stamps + ways - shift, r.stamps + ways);
      *r.hint = static_cast<std::uint32_t>((*r.hint + shift) % ways);
    }
    for (std::uint64_t w = 0; w < std::min(count, ways); ++w) {
      r.stamps[w] += steps;
    }
    set = set + 1 == num_sets_ ? 0 : set + 1;
  }
  return misses;
}

void SectoredCache::fill_dense_lines(const WarmStream& stream,
                                     std::uint64_t last, std::uint64_t stamp0,
                                     bool onto_empty) const {
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
  // A regular stream (power-of-two stride, base aligned to the larger of
  // stride and granule, 2^step bytes) makes an access every 2^step bytes
  // from its base: a line strictly between its first and last holds
  // line >> step of them at the same offsets. Such a line's stamp counts
  // the accesses below its end, and all share one mask. The first and last
  // lines, and every line of another stream, take the general forms.
  const std::uint64_t step_bytes =
      std::max<std::uint64_t>(stream.stride, 1ULL << g);
  const bool regular = std::has_single_bit(stream.stride) &&
                       stream.base % step_bytes == 0 && lines > 2;
  const auto step = static_cast<std::uint32_t>(std::countr_zero(step_bytes));
  const std::uint32_t interior_mask = regular ? mask_of(first_line + 1) : 0;

  // Sets of the last min(lines, sets) lines, walked backwards from the
  // last line: the last `lines % sets` of them hold one line more.
  const std::uint64_t per_set = lines / sets;
  const std::uint64_t extra = lines % sets;
  const std::uint64_t touched = std::min(lines, sets);
  // Victim-order position of a set's last line: (count - 1) % ways.
  const std::uint64_t last_slot_more = per_set % ways;
  const std::uint64_t last_slot = per_set == 0 ? 0 : (per_set - 1) % ways;
  // Only the sets of the line range allocated before the stream hold
  // lines; the rest are empty, and an empty set's victim order is the way
  // order.
  auto [first_held, held] = range_sets();
  if (onto_empty) held = 0;
  std::vector<std::uint32_t> order;
  std::uint32_t set = set_of(last_line);
  for (std::uint64_t i = 0; i < touched; ++i) {
    const std::uint64_t line = last_line - i;
    const std::uint64_t count = i < extra ? per_set + 1 : per_set;
    const Row r = row(set);
    // A set that may hold lines: sort its ways by stamp (insertion sort:
    // stable, so empty ways stay in index order, and sets are a few ways
    // wide).
    const bool prefilled = (set + sets - first_held) % sets < held;
    if (prefilled) {
      order.resize(ways);
      for (std::uint32_t w = 0; w < ways; ++w) {
        std::uint32_t at = w;
        for (; at > 0 && r.stamps[order[at - 1]] > r.stamps[w]; --at) {
          order[at] = order[at - 1];
        }
        order[at] = w;
      }
    }
    std::uint64_t slot = i < extra ? last_slot_more : last_slot;
    *r.hint = static_cast<std::uint32_t>(prefilled ? order[slot] : slot);
    const std::uint64_t keep = std::min(count, ways);
    for (std::uint64_t k = 0; k < keep; ++k) {
      const std::uint64_t kept = line - k * sets;
      const std::uint64_t way = prefilled ? order[slot] : slot;
      r.tags[way] = kept;
      if (regular && kept != first_line && kept != last_line) {
        r.masks[way] = interior_mask;
        r.stamps[way] = stamp0 + ((((kept + 1) << l) - stream.base) >> step);
      } else {
        r.masks[way] = mask_of(kept);
        r.stamps[way] = stamp_of(kept);
      }
      slot = slot == 0 ? ways - 1 : slot - 1;
    }
    set = set == 0 ? num_sets_ - 1 : set - 1;
  }
}

void SectoredCache::fill_sparse_lines(const WarmStream& stream,
                                      std::uint64_t accesses,
                                      std::uint64_t stamp0,
                                      bool onto_empty) const {
  // Stride or granule exceeds the line: every stream load opens a line of
  // its own and fills one sector of it. Each line is newer than everything
  // its set holds, so in a cache that held no line a set takes its lines
  // into ways 0, 1, ... in turn, wrapping once all are taken: the victim is
  // the way after the hinted one, and way 0 while way 0 is empty.
  const std::uint32_t g = stream.granule_shift;
  const bool every_load = stream.stride >= (1ULL << g);
  for (std::uint64_t m = 0; m < accesses; ++m) {
    const std::uint64_t address =
        every_load
            ? stream.base + m * stream.stride
            : first_load_from(stream, ((stream.base >> g) + m) << g);
    const std::uint64_t line = line_of(address);
    const std::uint32_t set = set_of(line);
    const Row r = row(set);
    std::uint32_t victim = 0;
    if (!onto_empty) {
      victim = victim_way(r.stamps);
    } else if (r.stamps[0] != 0 && *r.hint + 1 < ways_per_set_) {
      victim = *r.hint + 1;
    }
    r.tags[victim] = line;
    r.masks[victim] = 1u << sector_of(address);
    r.stamps[victim] = stamp0 + m + 1;
    *r.hint = victim;
  }
}

std::uint64_t SectoredCache::flush() {
  // Only the sets of the allocated line range can differ from empty. Their
  // tags and stamps are cleared (access() takes a stamp-0 way as empty);
  // masks of empty ways are never read before the way is refilled, and a
  // stale hint names a way whose tag cannot match. A pending fill was the
  // only thing booked since the last flush, and it wrote nothing.
  auto [set, count] = range_sets();
  if (fill_pending_) count = 0;
  const std::uint64_t cleared = count;
  if (count == num_sets_) {
    for (const Page& page : pages_) {
      if (page.tags == nullptr) continue;
      std::fill_n(page.tags, page_ways_, kInvalidTag);
      std::fill_n(page.stamps, page_ways_, 0);
    }
    count = 0;
  }
  for (; count > 0; --count) {
    if (const Page& page = pages_[set >> page_shift_]; page.tags != nullptr) {
      const Row r = row_at(page, set);
      std::fill_n(r.tags, ways_per_set_, kInvalidTag);
      std::fill_n(r.stamps, ways_per_set_, 0);
    }
    set = set + 1 == num_sets_ ? 0 : set + 1;
  }
  lo_line_ = ~0ULL;
  hi_line_ = 0;
  stamp_ = 0;
  stream_replays_ = false;
  fill_pending_ = false;
  return cleared;
}

void SectoredCache::capture_rows(CacheSnapshot& out) const {
  if (fill_pending_) write_fill();
  const std::size_t rows = out.sets.size();
  out.tags.assign(rows * ways_per_set_, kInvalidTag);
  out.masks.assign(rows * ways_per_set_, 0);
  out.stamps.assign(rows * ways_per_set_, 0);
  out.hints.assign(rows, 0);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint32_t set = out.sets[i];
    const Page& page = pages_[set >> page_shift_];
    if (page.tags == nullptr) continue;  // never written: as make_page sets it
    const Row r = row_at(page, set);
    const std::size_t dst = i * ways_per_set_;
    for (std::uint32_t w = 0; w < ways_per_set_; ++w) {
      out.tags[dst + w] = r.tags[w];
      out.masks[dst + w] = r.masks[w];
      out.stamps[dst + w] = r.stamps[w];
    }
    out.hints[i] = *r.hint;
  }
  out.stamp = stamp_;
  out.hits = hits_;
  out.misses = misses_;
}

void SectoredCache::snapshot(CacheSnapshot& out) const {
  // The allocated lines' sets: those of its first range_sets() lines.
  snapshot_addresses(lo_line_ * geometry_.line_bytes, geometry_.line_bytes,
                     range_sets().second, out);
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
  if (fill_pending_) write_fill();
  const std::size_t rows = snap.sets.size();
  for (std::size_t i = 0; i < rows; ++i) {
    const Row r = row(snap.sets[i]);
    const std::size_t src = i * ways_per_set_;
    for (std::uint32_t w = 0; w < ways_per_set_; ++w) {
      r.tags[w] = snap.tags[src + w];
      r.masks[w] = snap.masks[src + w];
      r.stamps[w] = snap.stamps[src + w];
    }
    *r.hint = snap.hints[i];
  }
  stamp_ = snap.stamp;
  hits_ = snap.hits;
  misses_ = snap.misses;
  stream_replays_ = false;
}

}  // namespace mt4g::sim
