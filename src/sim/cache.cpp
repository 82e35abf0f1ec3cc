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
  if (geometry_.line_bytes / geometry_.sector_bytes > 32) {
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
  pages_ = std::make_unique<Page[]>(page_count());

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
  const std::size_t ways = page_ways();
  const std::size_t narrow = ways + sets_per_page();
  page.storage =
      std::make_unique_for_overwrite<std::byte[]>(16 * ways + 4 * narrow);
  std::byte* const raw = page.storage.get();
  std::uint64_t* const tags = ::new (raw) std::uint64_t[2 * ways]();
  ::new (raw + 16 * ways) std::uint32_t[narrow]();
  std::fill_n(tags, ways, kInvalidTag);
}

template <class Fn>
void SectoredCache::runs_in(std::uint32_t page, std::uint32_t first,
                            std::uint64_t count, Fn fn) const {
  const std::uint32_t lo = page << page_shift_;
  const std::uint32_t hi = std::min(lo + sets_per_page(), num_sets_);
  if (count >= num_sets_) {
    fn(lo, hi);
    return;
  }
  // The span is [first, end) or, wrapped, [first, sets) and [0, end - sets).
  const std::uint64_t end = first + count;
  if (end > num_sets_ && end - num_sets_ > lo) {
    fn(lo, static_cast<std::uint32_t>(
               std::min<std::uint64_t>(end - num_sets_, hi)));
  }
  const std::uint64_t from = std::max<std::uint64_t>(first, lo);
  const std::uint64_t to = std::min<std::uint64_t>(end, hi);
  if (from < to) {
    fn(static_cast<std::uint32_t>(from), static_cast<std::uint32_t>(to));
  }
}

template <class Fn>
void SectoredCache::for_each_run(std::uint32_t first, std::uint64_t count,
                                 Fn fn) const {
  if (count == 0) return;
  // The pages from the first set's to the last set's, wrapping; a span
  // that wraps back into the page it starts in reaches them all.
  const std::uint32_t pages = page_count();
  std::uint32_t page = first >> page_shift_;
  const auto last_page = static_cast<std::uint32_t>(
      ((first + count - 1) % num_sets_) >> page_shift_);
  const bool wraps = first + count > num_sets_;
  std::uint32_t reached =
      wraps ? last_page + 1 + pages - page : last_page + 1 - page;
  if (count >= num_sets_ || (wraps && last_page >= page)) {
    page = 0;
    reached = pages;
  }
  for (; reached > 0; --reached) {
    runs_in(page, first, count, [&](std::uint32_t from, std::uint32_t to) {
      fn(page, from, to);
    });
    page = page + 1 == pages ? 0 : page + 1;
  }
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
  const std::uint64_t line = line_of(address);
  const std::uint32_t set = set_of(line);
  const std::uint32_t sector = sector_of(address);
  CacheAccess result;
  const Page& page = page_to_read(set >> page_shift_);
  if (page.storage == nullptr) return result;
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
  const Fill fill{stream, stamp_};
  stamp_ += accesses;
  hits_ += accesses - misses;
  misses_ += misses;
  // Written pages take the fill's lines now; it waits for the others.
  bool waits = pages_written_ == 0;
  if (!waits) {
    const auto [first, count] = stream_sets(stream);
    for_each_run(first, count,
                 [&](std::uint32_t page, std::uint32_t from, std::uint32_t to) {
                   if (pages_[page].written) {
                     fill_lines(fill, 0, from, to, /*onto_empty=*/false);
                   } else {
                     waits = true;
                   }
                 });
  }
  const std::uint64_t last_load =
      stream.stride >= (1ULL << g)
          ? last
          : first_load_from(stream, (last >> g) << g);
  lo_line_ = std::min(lo_line_, line_of(stream.base));
  hi_line_ = std::max(hi_line_, line_of(last_load));
  // The first fill since the flush that waits, or one onto an empty cache
  // (which replays() tests for), is kept in the stream_* members; later
  // ones queue behind it.
  if (onto_empty || (waits && !first_waits_)) {
    stream_base_ = stream.base;
    stream_stride_ = stream.stride;
    stream_count_ = stream.count;
    stream_stamp_ = stamp_;
    stream_granule_ = static_cast<std::uint8_t>(g);
    stream_turns_ = 0;
    first_waits_ = waits;
  } else if (waits) {
    more_fills_.push_back(fill);
  }
  stream_replays_ =
      onto_empty && g == 0 && stream.stride <= geometry_.line_bytes;
  return misses;
}

SectoredCache::Fill SectoredCache::first_fill() const {
  // stream_stamp_ is the clock the fill left, moved on by each replay of
  // it: a replay leaves what the same fill started that many loads later
  // leaves.
  const WarmStream stream{stream_base_, stream_stride_, stream_count_,
                          stream_granule_};
  const std::uint64_t last = stream.base + (stream.count - 1) * stream.stride;
  return {stream,
          stream_stamp_ - blocks_below(stream, stream_granule_, last + 1)};
}

void SectoredCache::write_page(std::uint32_t page) const {
  Page& written = pages_[page];
  if (written.storage == nullptr) make_page(written);
  written.written = true;
  ++pages_written_;
  if (!first_waits_) return;
  const auto write = [&](const Fill& fill, std::uint32_t turns,
                         bool onto_empty) {
    const auto [first, count] = stream_sets(fill.stream);
    runs_in(page, first, count, [&](std::uint32_t from, std::uint32_t to) {
      fill_lines(fill, turns, from, to, onto_empty);
    });
  };
  write(first_fill(), stream_turns_, /*onto_empty=*/true);
  for (const Fill& fill : more_fills_) write(fill, 0, /*onto_empty=*/false);
  // With every page written, no fill waits any more.
  if (pages_written_ == page_count()) {
    first_waits_ = false;
    more_fills_.clear();
  }
}

void SectoredCache::fill_lines(const Fill& fill, std::uint32_t turns,
                               std::uint32_t from, std::uint32_t to,
                               bool onto_empty) const {
  if (fill.stream.stride <= geometry_.line_bytes &&
      (1ULL << fill.stream.granule_shift) <= geometry_.line_bytes) {
    fill_dense_lines(fill, turns, from, to, onto_empty);
  } else {
    fill_sparse_lines(fill, from, to, onto_empty);
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

  // Each line's last load comes `steps` loads after the one before: the
  // same fill started `steps` loads later, which is what the first fill's
  // clock (stream_stamp_) now says for the pages still to write. In a set
  // holding at most `ways` lines they sit in its first ways (the fill
  // found it empty) and stay. In any other set the ways rotate: lines
  // arrive in the set's victim order, which is the way order starting
  // after the hinted way (fill_dense_lines' rotation), so `count` arrivals
  // move every line `count` ways on. Pages still to write count the turn;
  // written pages take it now.
  ++stream_turns_;
  if (pages_written_ == 0) return misses;
  const std::uint32_t first_set = set_of(lines.first);
  for_each_run(
      first_set, std::min(lines.count, sets),
      [&](std::uint32_t page, std::uint32_t from, std::uint32_t to) {
        if (!pages_[page].written) return;
        for (std::uint32_t set = from; set < to; ++set) {
          const Row r = row_at(pages_[page], set);
          const std::uint64_t count =
              lines.in_set_of((set + sets - first_set) % sets, sets);
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
        }
      });
  return misses;
}

void SectoredCache::fill_dense_lines(const Fill& fill, std::uint32_t turns,
                                     std::uint32_t from, std::uint32_t to,
                                     bool onto_empty) const {
  // Stride and granule fit in a line: the stream reaches every line from
  // the first load's to the last load's, and the first load in a line is
  // the first of its granule. A set receives its lines in line order, each
  // newer than anything it held, so its t-th line lands in the t-th way of
  // its victim order (ascending stamp, empty ways first by index), rotating
  // once all ways are taken. Only the last `ways` lines of a set survive,
  // and those are all that is written, set by set.
  const WarmStream& stream = fill.stream;
  const std::uint64_t stamp0 = fill.stamp0;
  const std::uint64_t last = stream.base + (stream.count - 1) * stream.stride;
  const std::uint32_t g = stream.granule_shift;
  const std::uint32_t l = line_shift_;
  const std::uint64_t first_line = stream.base >> l;
  const std::uint64_t last_line = last >> l;
  const std::uint64_t lines = last_line - first_line + 1;
  const std::uint64_t sets = num_sets_;
  const std::uint64_t ways = ways_per_set_;
  const auto sectors_per_line = static_cast<std::uint32_t>(
      geometry_.line_bytes / geometry_.sector_bytes);
  const std::uint32_t full_mask =
      static_cast<std::uint32_t>((2ULL << (sectors_per_line - 1)) - 1);
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

  // Counted back from the last line, the last `lines % sets` sets hold one
  // line more.
  const std::uint64_t per_set = lines / sets;
  const std::uint64_t extra = lines % sets;
  // Victim-order position of a set's last line: (count - 1) % ways.
  const std::uint64_t last_slot_more = per_set % ways;
  const std::uint64_t last_slot = per_set == 0 ? 0 : (per_set - 1) % ways;
  // A replay turns a set holding more than `ways` lines by its line count.
  const std::uint64_t turns_more = turns % ways * ((per_set + 1) % ways) % ways;
  const std::uint64_t turns_less = turns % ways * (per_set % ways) % ways;
  const std::uint32_t last_set = set_of(last_line);
  const Page& page = pages_[from >> page_shift_];
  std::vector<std::uint32_t> order;
  for (std::uint32_t set = from; set < to; ++set) {
    // The set's last line, i lines before the stream's last.
    const std::uint64_t i = (last_set + sets - set) % sets;
    const std::uint64_t line = last_line - i;
    const std::uint64_t count = i < extra ? per_set + 1 : per_set;
    const Row r = row_at(page, set);
    // A set that holds lines: sort its ways by stamp (insertion sort:
    // stable, so empty ways stay in index order, and sets are a few ways
    // wide). An empty set's victim order is the way order, turned by the
    // replays of an overflowing one.
    const bool prefilled = !onto_empty && r.stamps[0] != 0;
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
    const std::uint64_t turn =
        count <= ways ? 0 : (i < extra ? turns_more : turns_less);
    const auto way_of = [&](std::uint64_t slot) -> std::uint32_t {
      return static_cast<std::uint32_t>(
          prefilled ? order[slot] : (slot + turn) % ways);
    };
    std::uint64_t slot = i < extra ? last_slot_more : last_slot;
    *r.hint = way_of(slot);
    const std::uint64_t keep = std::min(count, ways);
    for (std::uint64_t k = 0; k < keep; ++k) {
      const std::uint64_t kept = line - k * sets;
      const std::uint32_t way = way_of(slot);
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
  }
}

void SectoredCache::fill_sparse_lines(const Fill& fill, std::uint32_t from,
                                      std::uint32_t to,
                                      bool onto_empty) const {
  // Stride or granule exceeds the line: every stream load opens a line of
  // its own and fills one sector of it. Each line is newer than everything
  // its set holds, so in sets that held no line a set takes its lines into
  // ways 0, 1, ... in turn, wrapping once all are taken: the victim is the
  // way after the hinted one, and way 0 while way 0 is empty.
  //
  // Line numbers rise with the load index, so the loads into the sets
  // [from, to) come in one run per round of lines over the sets: the loads
  // from the first at or above the round's line `from` to the first at or
  // above its line `to`. A load outside the sets skips to the next round's.
  const WarmStream& stream = fill.stream;
  const std::uint32_t g = stream.granule_shift;
  const bool every_load = stream.stride >= (1ULL << g);
  const std::uint64_t last = stream.base + (stream.count - 1) * stream.stride;
  const std::uint64_t accesses = blocks_below(stream, g, last + 1);
  const auto address_of = [&](std::uint64_t m) {
    return every_load
               ? stream.base + m * stream.stride
               : first_load_from(stream, ((stream.base >> g) + m) << g);
  };
  // The first load whose line is at least @p line.
  const auto first_from = [&](std::uint64_t line) {
    return blocks_below(stream, g, line << line_shift_);
  };
  const Page& page = pages_[from >> page_shift_];
  std::uint64_t m = 0;
  while (m < accesses) {
    const std::uint64_t line = line_of(address_of(m));
    const std::uint32_t set = set_of(line);
    const std::uint64_t round = line - set;  // the round's line in set 0
    if (set < from) {
      m = first_from(round + from);
      continue;
    }
    if (set >= to) {
      m = first_from(round + num_sets_ + from);
      continue;
    }
    for (const std::uint64_t end = first_from(round + to); m < end; ++m) {
      const std::uint64_t address = address_of(m);
      const std::uint64_t kept = line_of(address);
      const Row r = row_at(page, set_of(kept));
      std::uint32_t victim = 0;
      if (!onto_empty) {
        victim = victim_way(r.stamps);
      } else if (r.stamps[0] != 0 && *r.hint + 1 < ways_per_set_) {
        victim = *r.hint + 1;
      }
      r.tags[victim] = kept;
      r.masks[victim] = 1u << sector_of(address);
      r.stamps[victim] = fill.stamp0 + m + 1;
      *r.hint = victim;
    }
  }
}

std::uint64_t SectoredCache::flush() {
  // Only the sets of the allocated line range can hold a line, and of
  // those only the sets of written pages do. Their tags and stamps are
  // cleared (access() takes a stamp-0 way as empty); masks of empty ways
  // are never read before the way is refilled, and a stale hint names a
  // way whose tag cannot match. Every page is then not written, so it
  // holds no line whatever its storage says.
  std::uint64_t cleared = 0;
  if (pages_written_ > 0) {
    const auto [first, count] = range_sets();
    const std::size_t ways = ways_per_set_;
    for_each_run(first, count,
                 [&](std::uint32_t page, std::uint32_t from, std::uint32_t to) {
                   if (!pages_[page].written) return;
                   const Row r = row_at(pages_[page], from);
                   std::fill_n(r.tags, (to - from) * ways, kInvalidTag);
                   std::fill_n(r.stamps, (to - from) * ways, 0);
                   cleared += to - from;
                 });
    std::uint32_t unset = 0;
    for_each_run(first, count,
                 [&](std::uint32_t page, std::uint32_t, std::uint32_t) {
                   unset += pages_[page].written ? 1 : 0;
                   pages_[page].written = false;
                 });
    // A reader may have written a page outside the range; it holds no line.
    for (std::uint32_t page = 0; unset < pages_written_ && page < page_count();
         ++page) {
      unset += pages_[page].written ? 1 : 0;
      pages_[page].written = false;
    }
    pages_written_ = 0;
  }
  lo_line_ = ~0ULL;
  hi_line_ = 0;
  stamp_ = 0;
  stream_replays_ = false;
  first_waits_ = false;
  more_fills_.clear();
  last_set_ = ~0u;
  return cleared;
}

void SectoredCache::capture_rows(CacheSnapshot& out) const {
  const std::size_t rows = out.sets.size();
  out.tags.assign(rows * ways_per_set_, kInvalidTag);
  out.masks.assign(rows * ways_per_set_, 0);
  out.stamps.assign(rows * ways_per_set_, 0);
  out.hints.assign(rows, 0);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint32_t set = out.sets[i];
    const Page& page = page_to_read(set >> page_shift_);
    if (page.storage == nullptr) continue;  // never written: as make_page sets it
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

}  // namespace mt4g::sim
