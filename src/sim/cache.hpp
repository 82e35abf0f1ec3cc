// Sectored, set-associative, LRU cache model.
//
// This is the behavioural heart of the substrate. MT4G's microbenchmarks
// exploit exactly three cache mechanics, all modelled here:
//   * capacity + LRU eviction      -> size benchmarks (paper IV-B)
//   * line allocation granularity  -> cache line size benchmarks (IV-E)
//   * sectored fills               -> fetch granularity benchmarks (IV-D)
// Set-associativity is what produces the mixed hit/miss zone right at the
// capacity boundary (paper Fig. 1): with a cyclic sequential p-chase, only the
// oversubscribed sets thrash while the rest keep hitting.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

namespace mt4g::sim {

/// Geometry of one physical cache instance.
struct CacheGeometry {
  std::uint64_t size_bytes = 0;        ///< total capacity
  std::uint32_t line_bytes = 128;      ///< allocation unit
  std::uint32_t sector_bytes = 32;     ///< fill unit (fetch granularity)
  std::uint32_t associativity = 8;     ///< ways per set (clamped to fit size)

  std::uint64_t num_lines() const { return size_bytes / line_bytes; }
  bool operator==(const CacheGeometry&) const = default;
};

/// Result of a single cache probe.
struct CacheAccess {
  bool line_hit = false;    ///< line present (tag match)
  bool sector_hit = false;  ///< requested sector already filled
};

/// Sparse image of a cache's live way state: the captured sets' tags, sector
/// masks, LRU stamps and hint, plus the LRU clock and counters. Cache
/// equality compares two caches through it, and tests compare a cache with
/// its per-load oracle field by field.
struct CacheSnapshot {
  std::vector<std::uint32_t> sets;     ///< distinct captured set indices
  std::vector<std::uint64_t> tags;     ///< sets.size() * ways, row per set
  std::vector<std::uint32_t> masks;
  std::vector<std::uint64_t> stamps;
  std::vector<std::uint32_t> hints;    ///< one per captured set
  std::uint64_t stamp = 0;             ///< LRU clock at capture time
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  bool operator==(const CacheSnapshot&) const = default;

  void clear() {
    sets.clear();
    tags.clear();
    masks.clear();
    stamps.clear();
    hints.clear();
    stamp = hits = misses = 0;
  }
};

/// The loads of a warm walk as one cache level sees them: of the
/// progression base + j * stride (j < count, stride > 0), the first load
/// into each visited block of 2^granule_shift bytes. Granule shift 0 is
/// every load (the first level); a level's sector misses are the next
/// level's stream at granule max(granule, sector size).
struct WarmStream {
  std::uint64_t base = 0;
  std::uint64_t stride = 0;
  std::uint64_t count = 0;
  std::uint32_t granule_shift = 0;

  bool operator==(const WarmStream&) const = default;
};

/// One physical cache. Addresses are raw byte addresses in the simulated
/// global heap; the cache is physically indexed/tagged.
///
/// Way state lives in pages of whole sets, one allocation each, made on the
/// first write to one of their sets and kept across flushes. A fresh cache
/// (and so a Gpu::fork) costs its geometry and an empty page table; its
/// memory then follows the sets it writes.
///
/// access() is THE simulator hot path: a discovery issues hundreds of
/// millions of loads, each one call. It is defined inline below so the
/// batched pass loop (Gpu::run_pass) can absorb it, and the index math uses
/// precomputed shifts/masks instead of per-access divisions whenever the
/// geometry is a power of two (it always is for real specs). Warm walks
/// (fill_warm_stream) skip it: their effect is written set by set, and only
/// into the pages something reads.
///
/// Pages are written when read. A page is written, since the last flush,
/// when something first reads or writes one of its sets that can hold a
/// line: access() on a set change, peek(), the snapshots and equality.
/// Writing it writes every closed-form fill since the flush into its sets,
/// in fill order; a fill runs only while no page is written, so it waits
/// for every page. So a written page holds every fill and every stepped
/// load since the flush, and a page not written since holds no line.
/// Readers that are const write pages through mutable state. A cache, like
/// its Gpu, is used by one thread at a time (core/mt4g.hpp), so this needs
/// no lock.
class SectoredCache {
 public:
  /// Ways per page, rounded down to whole sets and a power-of-two set count.
  static constexpr std::uint32_t kPageWays = 1024;

  explicit SectoredCache(const CacheGeometry& geometry);

  /// Probes and updates state: on a sector miss the sector is filled (and the
  /// line allocated, evicting LRU if needed).
  CacheAccess access(std::uint64_t address);

  /// Probe without state change (for assertions in tests).
  CacheAccess peek(std::uint64_t address) const;

  /// Whether @p stream (count > 0) can be counted in closed form here: line
  /// and sector sizes are powers of two, so the granules of successive
  /// levels nest, and the cache holds no line between the stream's first
  /// and last load, so every line the stream reaches misses once and then
  /// hits until the stream leaves it for good.
  bool counts_warm_stream(const WarmStream& stream) const;

  /// Whether fill_warm_stream(@p stream) applies: counts_warm_stream(), and
  /// no page written since the last flush.
  bool takes_warm_stream(const WarmStream& stream) const;

  /// Applies @p stream as if access() ran on each of its loads, without
  /// stepping them. Precondition: takes_warm_stream(@p stream). Hits,
  /// misses, the LRU clock, the allocated line range and the way state of
  /// every set end exactly as the per-load loop leaves them. Returns the
  /// sector misses: the next level's stream length.
  ///
  /// The fill books its hits, misses, LRU clock and line range at once and
  /// waits: each page is written, with every waiting fill in order, when
  /// something first reads it, and flush() drops what still waits.
  std::uint64_t fill_warm_stream(const WarmStream& stream);

  /// The first closed-form fill since the last flush, if one ran. It found
  /// the cache empty: before it, no page was written, so nothing ran.
  std::optional<WarmStream> first_fill() const {
    if (!first_filled_) return std::nullopt;
    return WarmStream{stream_base_, stream_stride_, stream_count_,
                      stream_granule_};
  }

  /// first_fill() while it is all that ran on the cache since the last
  /// flush: no access() and no other fill since (readers do not count).
  std::optional<WarmStream> sole_fill() const {
    if (stamp_ != stream_stamp_) return std::nullopt;
    return first_fill();
  }

  /// Whether the allocated line range spans at most num_sets() * ways
  /// lines: then no set had to hold more than its ways since the last
  /// flush, and every line allocated since is still held, sectors and all.
  bool holds_every_line() const {
    return lo_line_ > hi_line_ ||
           hi_line_ - lo_line_ <
               static_cast<std::uint64_t>(num_sets_) * ways_per_set_;
  }

  /// Drops all contents: clears, in place, the sets of the lines allocated
  /// since the last flush that lie in pages written since (no other set
  /// holds a line, and no other page is written), and drops the fills
  /// still waiting for a page. Returns the number of sets cleared.
  std::uint64_t flush();

  /// Captures the sets of the lines allocated since the last flush, in set
  /// order, plus LRU clock and counters, into `out`.
  void snapshot(CacheSnapshot& out) const;

  /// Captures the state of the sets that the address sequence
  /// base + i * stride (i in [0, steps)) maps to. Appends nothing outside
  /// those sets; `out` is cleared first.
  void snapshot_addresses(std::uint64_t base, std::uint64_t stride,
                          std::uint64_t steps, CacheSnapshot& out) const;

  const CacheGeometry& geometry() const { return geometry_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  void reset_counters() { hits_ = misses_ = 0; }

  /// Restores externally captured counters. Used when a cache instance is
  /// rebuilt (e.g. an L2 fetch-granularity change) but the accumulated
  /// hit/miss telemetry must survive the rebuild.
  void set_counters(std::uint64_t hits, std::uint64_t misses) {
    hits_ = hits;
    misses_ = misses;
  }

  std::uint32_t num_sets() const { return num_sets_; }
  /// Sets held by one page (a power of two); page p holds the sets
  /// [p * sets_per_page(), (p + 1) * sets_per_page()).
  std::uint32_t sets_per_page() const { return 1u << page_shift_; }

  /// Logical equality: geometry, LRU clock, counters, allocated line range
  /// and every set's tags and stamps, the masks of its filled ways and, in
  /// a set holding a line, its hint. A page never written equals one as
  /// first written, and what a flush leaves behind (masks of empty ways,
  /// hints of empty sets) is never read, so it is not compared.
  bool operator==(const SectoredCache& other) const;

 private:
  friend class Gpu;  // keeps listed_, counts waiting fills and pages written,
                     // decides last passes from fills and sectors

  /// Tag value of an empty way. Real tags are line numbers, bounded far
  /// below 2^63 by the simulated heap size, so the sentinel cannot collide.
  static constexpr std::uint64_t kInvalidTag = ~0ULL;

  /// One page of way state: the sets_per_page() sets' tags and LRU stamps
  /// (64-bit), then their sector masks and hints (32-bit), carved from one
  /// allocation (see row_at). Each array is row-major by set, so the tag
  /// scan of an 8-way set touches one cache line. Null storage: no set of
  /// the page was ever written. `written`: the page holds every fill and
  /// stepped load since the last flush; a page not written since holds no
  /// line, whatever its storage says.
  struct Page {
    std::unique_ptr<std::byte[]> storage;
    bool written = false;
  };
  static_assert(sizeof(Page) <= 40, "every fork builds one Page per page");
  /// One set's way state: `ways` tags, stamps and masks, and its hint.
  struct Row {
    std::uint64_t* tags;    ///< kInvalidTag marks an empty way
    std::uint64_t* stamps;  ///< unique, monotonic; 0 when empty
    std::uint32_t* masks;   ///< bit i: sector i of the line filled
    std::uint32_t* hint;    ///< way of the set's last access
  };
  /// A closed-form fill waiting for a page: its stream and the LRU clock it
  /// started from.
  struct Fill {
    WarmStream stream;
    std::uint64_t stamp0 = 0;
  };

  std::size_t page_ways() const {
    return static_cast<std::size_t>(ways_per_set_) << page_shift_;
  }
  std::uint32_t page_count() const {
    return ((num_sets_ - 1) >> page_shift_) + 1;
  }
  /// The way state of @p set inside @p page, which has storage.
  Row row_at(const Page& page, std::uint32_t set) const {
    const std::size_t ways = page_ways();
    const std::uint32_t local = set & (sets_per_page() - 1);
    const std::size_t first = static_cast<std::size_t>(local) * ways_per_set_;
    std::byte* const raw = page.storage.get();
    auto* const wide = std::launder(reinterpret_cast<std::uint64_t*>(raw));
    auto* const narrow =
        std::launder(reinterpret_cast<std::uint32_t*>(raw + 16 * ways));
    return {wide + first, wide + ways + first, narrow + first,
            narrow + ways + local};
  }
  /// The way state of @p set, writing its page first if it is not written.
  Row row(std::uint32_t set) const {
    const std::uint32_t page = set >> page_shift_;
    if (!pages_[page].written) [[unlikely]] {
      write_page(page);
    }
    return row_at(pages_[page], set);
  }
  void make_page(Page& page) const;
  /// The page of @p set as a reader sees it: written first while a fill
  /// waits, unless the set lies outside the allocated line range's sets
  /// and so holds no line. Every written page thus holds a set of the
  /// range, which is what lets flush() unset them all.
  const Page& page_to_read(std::uint32_t set) const {
    const std::uint32_t page = set >> page_shift_;
    const auto [first, count] = range_sets();
    if (first_waits_ && !pages_[page].written &&
        (set + num_sets_ - first) % num_sets_ < count) {
      write_page(page);
    }
    return pages_[page];
  }
  /// Allocates @p page if needed and writes every waiting fill into its
  /// sets, in fill order: the first onto the empty page, the others onto
  /// what the earlier ones left.
  void write_page(std::uint32_t page) const;
  /// The sets the lines @p first .. @p last map to, as (first set, count),
  /// wrapping past the last set.
  std::pair<std::uint32_t, std::uint64_t> sets_of_lines(
      std::uint64_t first, std::uint64_t last) const {
    return {set_of(first), std::min<std::uint64_t>(last - first + 1, num_sets_)};
  }
  /// The sets lines allocated since the last flush map to. No other set
  /// holds a line.
  std::pair<std::uint32_t, std::uint64_t> range_sets() const {
    if (lo_line_ > hi_line_) return {0, 0};
    return sets_of_lines(lo_line_, hi_line_);
  }
  /// The sets the lines of @p stream map to.
  std::pair<std::uint32_t, std::uint64_t> stream_sets(
      const WarmStream& stream) const {
    return sets_of_lines(
        line_of(stream.base),
        line_of(stream.base + (stream.count - 1) * stream.stride));
  }
  /// Calls @p fn(from, to) for each run [from, to) of the @p count sets
  /// from @p first (wrapping) inside @p page: none, one or two.
  template <class Fn>
  void runs_in(std::uint32_t page, std::uint32_t first, std::uint64_t count,
               Fn fn) const;
  /// Calls @p fn(page, from, to) for each run of those sets inside one
  /// page, page by page; a page's two runs come in a row.
  template <class Fn>
  void for_each_run(std::uint32_t first, std::uint64_t count, Fn fn) const;
  void capture_rows(CacheSnapshot& out) const;
  /// The first fill since the last flush, kept in the stream_* members,
  /// with the LRU clock it started from.
  Fill first_waiting() const;
  /// Fills waiting for a page: the first, then more_fills_.
  std::uint64_t fills_waiting() const {
    return first_waits_ ? 1 + more_fills_.size() : 0;
  }
  /// Writes the way state @p fill leaves in the sets [from, to) of one
  /// written page, each of whose sets it reaches; @p onto_empty when they
  /// held no line.
  void fill_lines(const Fill& fill, std::uint32_t from, std::uint32_t to,
                  bool onto_empty) const;
  void fill_dense_lines(const Fill& fill, std::uint32_t from,
                        std::uint32_t to, bool onto_empty) const;
  void fill_sparse_lines(const Fill& fill, std::uint32_t from,
                         std::uint32_t to) const;
  /// Loads of @p stream (count > 0) and its sector misses, on a cache that
  /// holds none of its lines: its first loads into each granule and into
  /// each sector.
  std::pair<std::uint64_t, std::uint64_t> warm_counts(
      const WarmStream& stream) const;
  /// Sector misses of a walk over @p prefix of the dense first fill while
  /// the fill is all the cache holds. The fill reaches every line from
  /// lo_line_ to hi_line_: a set holds `per_set` of them, and one more in
  /// the sets of the first `extra`. Under LRU, a set holding at most `ways`
  /// keeps them all; any other set is always missing the line the walk
  /// comes back to (its `ways` most recent lines are the ones before it),
  /// so the walk misses each sector there once.
  std::uint64_t prefix_misses(const WarmStream& prefix) const;
  /// Way a line miss evicts, given the set's stamps: the minimum-stamp way,
  /// branchlessly (the LRU compare outcome is data-dependent and would
  /// mispredict). Empty ways carry stamp 0 (stamps are zeroed on flush,
  /// live stamps start at 1) and the strict < keeps the first minimum: the
  /// first empty way, else the LRU way.
  std::uint32_t victim_way(const std::uint64_t* stamps) const {
    std::uint32_t victim = 0;
    std::uint64_t victim_stamp = stamps[0];
    for (std::uint32_t w = 1; w < ways_per_set_; ++w) {
      const std::uint64_t s = stamps[w];
      const bool less = s < victim_stamp;
      victim = less ? w : victim;
      victim_stamp = less ? s : victim_stamp;
    }
    return victim;
  }

  // Members are ordered so that no padding sits between them (LP64).
  CacheGeometry geometry_;
  std::uint32_t num_sets_ = 1;
  std::uint32_t ways_per_set_ = 1;
  std::uint32_t page_shift_ = 0;  ///< log2(sets per page)
  /// Whether the cache is on the flush list of the Gpu whose path reached
  /// it (Gpu::flush_caches), so listing it again costs no search.
  bool listed_ = false;
  /// Granule shift of the first fill's stream (below), whether a fill ran
  /// since the last flush, and whether the first one waits for a page.
  std::uint8_t stream_granule_ = 0;
  bool first_filled_ = false;
  mutable bool first_waits_ = false;
  std::uint64_t stamp_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  /// Lowest and highest line allocated since the last flush (empty while
  /// lo > hi). A warm walk beyond them cannot hit, which is what lets
  /// Gpu::run_warm_pass hand it to fill_warm_stream; and only their sets
  /// can differ from empty, which is what flush() clears.
  std::uint64_t lo_line_ = ~0ULL;
  std::uint64_t hi_line_ = 0;
  /// The first fill since the last flush (first_fill()), and the LRU clock
  /// it left.
  std::uint64_t stream_base_ = 0;
  std::uint64_t stream_stride_ = 0;
  std::uint64_t stream_count_ = 0;
  std::uint64_t stream_stamp_ = 0;
  /// Pages written since the last flush.
  mutable std::uint32_t pages_written_ = 0;
  /// Way state, page_count() pages of whole sets (see Page); pages are
  /// never freed.
  std::unique_ptr<Page[]> pages_;
  /// The fills after the first still waiting for a page, in fill order.
  /// A flush, or writing the last page, empties the list and keeps its
  /// capacity.
  mutable std::vector<Fill> more_fills_;
  /// The row of the set access() touched last, and that set, whose page is
  /// written. A flush unsets it, so access() writes the page again on its
  /// set-change branch.
  Row last_row_{};
  std::uint32_t last_set_ = ~0u;

  // Precomputed index math (set up by the constructor). A shift value of
  // kNoShift means the quantity is not a power of two and the division is
  // performed directly — 64-bit divisions cost tens of cycles each and there
  // are up to three per access, so the shift path matters.
  static constexpr std::uint32_t kNoShift = 0xFFFFFFFF;
  std::uint32_t line_shift_ = kNoShift;    ///< log2(line_bytes) if pow2
  std::uint32_t sector_shift_ = kNoShift;  ///< log2(sector_bytes) if pow2
  std::uint32_t set_mask_ = 0;             ///< num_sets_ - 1 if pow2, else 0
  double sets_inv_ = 1.0;                  ///< 1.0 / num_sets_

  std::uint64_t line_of(std::uint64_t address) const {
    return line_shift_ != kNoShift ? address >> line_shift_
                                   : address / geometry_.line_bytes;
  }
  std::uint32_t set_of(std::uint64_t line) const {
    if (set_mask_ != 0 || num_sets_ == 1) {
      return static_cast<std::uint32_t>(line & set_mask_);
    }
    // Non-power-of-two set counts (25 MiB L2 partitions and friends) would
    // pay a hardware 64-bit modulo per access. A double-precision reciprocal
    // gives the quotient within +-2 for any line index below 2^52 (simulated
    // addresses stay far below that), and the fix-up loops make the
    // remainder exact.
    const auto q = static_cast<std::uint64_t>(
        static_cast<double>(line) * sets_inv_);
    auto r = static_cast<std::int64_t>(line - q * num_sets_);
    while (r < 0) r += num_sets_;
    while (r >= num_sets_) r -= num_sets_;
    return static_cast<std::uint32_t>(r);
  }
  std::uint32_t sector_of(std::uint64_t address) const {
    const std::uint64_t offset =
        line_shift_ != kNoShift
            ? address & ((1ULL << line_shift_) - 1)
            : address % geometry_.line_bytes;
    return static_cast<std::uint32_t>(
        sector_shift_ != kNoShift ? offset >> sector_shift_
                                  : offset / geometry_.sector_bytes);
  }
};

inline CacheAccess SectoredCache::access(std::uint64_t address) {
  const std::uint64_t line = line_of(address);
  const std::uint32_t set = set_of(line);
  const std::uint32_t sector = sector_of(address);
  // A p-chase revisits the same line line/stride times in a row, so the set
  // of the previous access is usually this one: its row is kept, which
  // keeps the page lookup off that path. And the way touched by the
  // previous access to this set almost always holds the next match.
  // Probing it first turns the data-dependent scan exit (a mispredict per
  // load) into one predictable compare. Tags are unique within a set, so
  // probe order cannot change the outcome.
  if (set != last_set_) {
    last_set_ = set;
    last_row_ = row(set);
  }
  const Row r = last_row_;
  ++stamp_;
  CacheAccess result;
  const std::uint32_t hinted = *r.hint;
  std::uint32_t match = ways_per_set_;
  if (r.tags[hinted] == line) {
    match = hinted;
  } else {
    for (std::uint32_t w = 0; w < ways_per_set_; ++w) {
      if (r.tags[w] == line) {
        match = w;
        break;
      }
    }
  }
  if (match != ways_per_set_) {
    result.line_hit = true;
    result.sector_hit = (r.masks[match] >> sector) & 1u;
    r.masks[match] |= 1u << sector;
    r.stamps[match] = stamp_;
    *r.hint = match;
    if (result.sector_hit) {
      ++hits_;
    } else {
      ++misses_;
    }
    return result;
  }
  const std::uint32_t victim = victim_way(r.stamps);
  ++misses_;
  lo_line_ = std::min(lo_line_, line);
  hi_line_ = std::max(hi_line_, line);
  r.tags[victim] = line;
  r.masks[victim] = 1u << sector;
  r.stamps[victim] = stamp_;
  *r.hint = victim;
  return result;
}

}  // namespace mt4g::sim
