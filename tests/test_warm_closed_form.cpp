// Gate for the closed-form warm walk and the decided last pass after it.
// Gpu::run_warm_pass computes a walk's effect on each cache level
// arithmetically when the walk starts beyond every line a level holds
// (written into a page of way state when something first reads it), and
// steps it otherwise; Gpu::run_last_pass classifies a chase's timed pass
// from the walk's own fill, or from cold levels, without stepping, and
// flushes; the per-load loop (stride 0, one load per call — what the
// reference engine runs) is their oracle. Every case below runs the same
// history and walk through both and compares every per-level field (tags,
// masks, stamps and hints of the sets of the allocated line range, in set
// order; LRU clock, hit and miss counters, the allocated line range) plus
// device-memory accesses and the cycle total, and for timed passes the
// recorded latencies and served counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/cache.hpp"
#include "sim/gpu.hpp"
#include "sim/registry.hpp"

namespace mt4g::sim {
namespace {

/// One side of a comparison: its own Gpu (device-memory counter) and
/// its own caches, chained into a hand-built path, and a path from another
/// placement: a first level of its own (the last of `caches`) over the same
/// deeper levels, as a second SM or CU sees them.
struct Side {
  Gpu gpu{registry_get("TestGPU-NV"), 1};
  std::deque<SectoredCache> caches;  // stable addresses for the paths
  AccessPath path;
  AccessPath other;

  explicit Side(const std::vector<CacheGeometry>& levels) {
    const Element elements[] = {Element::kL1, Element::kL2, Element::kL3};
    for (std::size_t k = 0; k < levels.size(); ++k) {
      caches.emplace_back(levels[k]);
      path.levels[k] = {&caches.back(), elements[k],
                        static_cast<std::uint32_t>(30 + 70 * k)};
    }
    path.depth = levels.size();
    path.terminal = Element::kDeviceMem;
    path.terminal_latency = 600;
    other = path;
    caches.emplace_back(levels[0]);
    other.levels[0].cache = &caches.back();
  }

  std::uint64_t oracle_walk(std::uint64_t base, std::uint64_t stride,
                            std::uint64_t steps) {
    return oracle_walk_on(path, base, stride, steps);
  }
  std::uint64_t oracle_walk_on(const AccessPath& on, std::uint64_t base,
                               std::uint64_t stride, std::uint64_t steps) {
    std::uint64_t cycles = 0;
    for (std::uint64_t i = 0; i < steps; ++i) {
      cycles += gpu.run_warm_pass(on, base + i * stride, 0, 1);
    }
    return cycles;
  }
  std::uint64_t dmem() const { return gpu.miss_count(0, Element::kDeviceMem); }
};

/// Field-by-field comparison (readable failures), then whole-state equality
/// (sets outside the snapshot and the allocated line range included).
void expect_same_state(const SectoredCache& closed, const SectoredCache& oracle,
                       const std::string& where) {
  CacheSnapshot a;
  CacheSnapshot b;
  closed.snapshot(a);
  oracle.snapshot(b);
  EXPECT_EQ(a.sets, b.sets) << where << ": touched sets";
  EXPECT_EQ(a.tags, b.tags) << where << ": tags";
  EXPECT_EQ(a.masks, b.masks) << where << ": masks";
  EXPECT_EQ(a.stamps, b.stamps) << where << ": stamps";
  EXPECT_EQ(a.hints, b.hints) << where << ": hints";
  EXPECT_EQ(a.stamp, b.stamp) << where << ": LRU clock";
  EXPECT_EQ(a.hits, b.hits) << where << ": hits";
  EXPECT_EQ(a.misses, b.misses) << where << ": misses";
  EXPECT_TRUE(closed == oracle) << where << ": whole cache state";
}

/// A random level: in half the draws any set count below 25, in the other
/// half 60 to 600 sets (non-powers of two included: several pages of way
/// state at more than 2 ways), and 1 to @p max_ways ways, with a
/// power-of-two line and sector unless @p odd_line asks for a line of 48,
/// 96 or 192 bytes, which the closed forms must decline.
CacheGeometry random_level(Xoshiro256& rng, bool odd_line,
                           std::uint64_t max_ways) {
  CacheGeometry g;
  if (odd_line) {
    const std::uint32_t lines[] = {48, 96, 192};
    g.line_bytes = lines[rng.uniform_int(0, 2)];
    g.sector_bytes = g.line_bytes / static_cast<std::uint32_t>(
                                        1 + rng.uniform_int(0, 1) * 2);
  } else {
    g.line_bytes = 16u << rng.uniform_int(0, 4);
    g.sector_bytes = std::max<std::uint32_t>(
        4, g.line_bytes >> rng.uniform_int(0, 3));
  }
  g.associativity =
      static_cast<std::uint32_t>(1 + rng.uniform_int(0, max_ways - 1));
  const std::uint64_t sets = rng.uniform_int(0, 1) == 0
                                 ? 1 + rng.uniform_int(0, 23)
                                 : 60 + rng.uniform_int(0, 540);
  g.size_bytes = g.line_bytes * g.associativity * sets;
  return g;
}

/// ", level size/line/sector/ways" per level, for failure messages.
std::string describe(const std::vector<CacheGeometry>& levels) {
  std::string text;
  for (const CacheGeometry& g : levels) {
    text += ", level " + std::to_string(g.size_bytes) + "/" +
            std::to_string(g.line_bytes) + "/" +
            std::to_string(g.sector_bytes) + "/" +
            std::to_string(g.associativity);
  }
  return text;
}

std::uint64_t random_stride(Xoshiro256& rng, const CacheGeometry& g) {
  const std::uint64_t line = g.line_bytes;
  const std::uint64_t sector = g.sector_bytes;
  const std::uint64_t choices[] = {1,
                                   4,
                                   std::max<std::uint64_t>(1, sector / 2),
                                   sector,
                                   sector + sector / 2,
                                   line - 4,
                                   line,
                                   line + sector / 2,
                                   2 * line,
                                   3 * line - 4,
                                   1 + rng.uniform_int(0, 4 * line)};
  return std::max<std::uint64_t>(1, choices[rng.uniform_int(0, 10)]);
}

enum class History {
  kCold,         ///< fresh caches
  kFlushed,      ///< random loads, then a flush
  kBelow,        ///< another array below the walk: its sets are not empty
  kAbove,        ///< another array above the walk
  kExtension,    ///< a prefix of the same walk, then the rest of it
  kOverlapping,  ///< random loads inside the walk's range: stepped
};

/// Which walks run_case draws.
enum class Walks {
  kAny,      ///< any stride and base
  kRegular,  ///< power-of-two strides up to the first line, bases aligned
             ///< to 4 KiB, to the stride or to nothing
};

void run_case(std::uint64_t seed, Walks walks = Walks::kAny) {
  Xoshiro256 rng(seed);
  const bool regular = walks == Walks::kRegular;
  std::vector<CacheGeometry> levels;
  const std::size_t depth = 1 + rng.uniform_int(0, 2);
  for (std::size_t k = 0; k < depth; ++k) {
    // One level in ten has a non-power-of-two line.
    levels.push_back(
        random_level(rng, !regular && rng.uniform_int(0, 9) == 0, 12));
  }
  Side closed(levels);
  Side oracle(levels);
  std::uint64_t capacity = 0;
  for (const CacheGeometry& g : levels) {
    capacity = std::max(capacity, g.size_bytes);
  }

  const std::uint64_t stride =
      regular ? 1ULL << rng.uniform_int(
                    0, std::countr_zero(levels[0].line_bytes))
              : random_stride(rng, levels[0]);
  std::uint64_t base = 4096 * (4 + rng.uniform_int(0, 60));
  switch (regular ? rng.uniform_int(0, 2) : 2) {
    case 0:
      break;
    case 1:
      base += stride * rng.uniform_int(0, 4095 / stride);
      break;
    default:
      base += rng.uniform_int(0, 4095);
  }
  const std::uint64_t bytes = 1 + rng.uniform_int(0, 3 * capacity);
  const std::uint64_t steps =
      std::min<std::uint64_t>(20000, std::max<std::uint64_t>(1, bytes / stride));
  const auto history = static_cast<History>(rng.uniform_int(0, 5));
  std::string where = "seed " + std::to_string(seed) + ", history " +
                      std::to_string(static_cast<int>(history)) +
                      ", stride " + std::to_string(stride) + ", steps " +
                      std::to_string(steps);
  where += describe(levels);

  // The history runs on the oracle loop on both sides, except another
  // array's walk or a walk prefix, which each side walks its own way (and
  // must agree on): the closed side's walk is a fill the checked one
  // queues behind.
  const auto both = [&](std::uint64_t b, std::uint64_t s, std::uint64_t n) {
    closed.oracle_walk(b, s, n);
    oracle.oracle_walk(b, s, n);
  };
  const auto each = [&](std::uint64_t b, std::uint64_t s, std::uint64_t n) {
    EXPECT_EQ(closed.gpu.run_warm_pass(closed.path, b, s, n),
              oracle.oracle_walk(b, s, n))
        << where << ": history cycles";
  };
  std::uint64_t first = 0;  // first step of the checked walk
  switch (history) {
    case History::kCold:
      break;
    case History::kFlushed:
      for (int i = 0; i < 200; ++i) both(rng.uniform_int(0, 1 << 20), 0, 1);
      for (SectoredCache& c : closed.caches) c.flush();
      for (SectoredCache& c : oracle.caches) c.flush();
      break;
    case History::kBelow: {
      const std::uint64_t s = random_stride(rng, levels[0]);
      each(base - 4096 * 3 - rng.uniform_int(0, 4096), s,
           1 + rng.uniform_int(0, 3 * 4096 / s));
      break;
    }
    case History::kAbove:
      each(base + steps * stride + 4096 + rng.uniform_int(0, 4096),
           random_stride(rng, levels[0]), 1 + rng.uniform_int(0, 400));
      break;
    case History::kExtension: {
      first = rng.uniform_int(0, steps - 1);
      const std::uint64_t c = closed.gpu.run_warm_pass(closed.path, base,
                                                       stride, first);
      const std::uint64_t o = oracle.oracle_walk(base, stride, first);
      EXPECT_EQ(c, o) << where << ": prefix cycles";
      break;
    }
    case History::kOverlapping:
      for (int i = 0; i < 50; ++i) {
        both(base + rng.uniform_int(0, steps * stride), 0, 1);
      }
      break;
  }

  const std::uint64_t from = base + first * stride;
  const std::uint64_t c =
      closed.gpu.run_warm_pass(closed.path, from, stride, steps - first);
  const std::uint64_t o = oracle.oracle_walk(from, stride, steps - first);
  EXPECT_EQ(c, o) << where << ": cycles";
  EXPECT_EQ(closed.dmem(), oracle.dmem()) << where << ": device memory";
  for (std::size_t k = 0; k < depth; ++k) {
    expect_same_state(closed.caches[k], oracle.caches[k],
                      where + ", level " + std::to_string(k));
  }
}

TEST(WarmClosedForm, MatchesThePerLoadLoopOnRandomWalks) {
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    run_case(seed);
    if (HasFailure()) break;  // one diagnosed case beats thousands
  }
}

TEST(WarmClosedForm, MatchesThePerLoadLoopOnRandomRegularWalks) {
  // Power-of-two strides from 1 B to the first level's line through one to
  // three levels, whose sector sizes make the lower levels' granules: the
  // streams whose inner lines fill_dense_lines writes by arithmetic.
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    run_case(seed, Walks::kRegular);
    if (HasFailure()) break;
  }
}

TEST(WarmClosedForm, SecondArraysOnRealPaths) {
  // The dual-array shapes discovery runs, on real compiled paths: array A
  // walked whole, then array B from another SM or CU. Two-level L1 -> L2
  // pairs share the L2; dual-CU three-level sL1d -> L2 -> L3 pairs land
  // their second array in sets the first one filled. Array B lies above
  // array A, so both walks start beyond every line their levels hold and
  // no load steps.
  struct Shape {
    const char* model;
    Space space;
    std::uint32_t stride;
    std::uint64_t bytes;
  };
  const Shape shapes[] = {
      {"V100", Space::kGlobal, 32, 160 * KiB},
      {"TestGPU-NV", Space::kGlobal, 48, 48 * KiB},
      {"MI300X", Space::kScalar, 64, 14 * KiB},
      {"MI355X-preview", Space::kScalar, 64, 14 * KiB},
  };
  for (const Shape& shape : shapes) {
    Gpu closed(registry_get(shape.model), 1);
    Gpu oracle(registry_get(shape.model), 1);
    const std::uint64_t base = closed.alloc(shape.bytes, 256);
    const std::uint64_t base_b = closed.alloc(shape.bytes, 256);
    const std::uint64_t steps = shape.bytes / shape.stride;
    const Placement a{0, 0};
    const Placement b{1, 0};
    const auto oracle_walk = [&](const Placement& where, std::uint64_t from) {
      std::uint64_t cycles = 0;
      for (std::uint64_t i = 0; i < steps; ++i) {
        cycles += oracle.warm_access(where, shape.space,
                                     from + i * shape.stride);
      }
      return cycles;
    };
    const AccessPath path_a = closed.compile_path(a, shape.space);
    const AccessPath path_b = closed.compile_path(b, shape.space);
    EXPECT_EQ(closed.run_warm_pass(path_a, base, shape.stride, steps),
              oracle_walk(a, base))
        << shape.model << " first array";
    EXPECT_EQ(closed.run_warm_pass(path_b, base_b, shape.stride, steps),
              oracle_walk(b, base_b))
        << shape.model << " second array";
    const AccessPath oracle_a = oracle.compile_path(a, shape.space);
    const AccessPath oracle_b = oracle.compile_path(b, shape.space);
    for (const auto* pair : {&path_a, &path_b}) {
      const AccessPath& mirror = pair == &path_a ? oracle_a : oracle_b;
      for (std::size_t k = 0; k < pair->depth; ++k) {
        expect_same_state(*pair->levels[k].cache, *mirror.levels[k].cache,
                          std::string(shape.model) + " level " +
                              std::to_string(k));
      }
    }
    EXPECT_EQ(closed.miss_count(0, Element::kDeviceMem),
              oracle.miss_count(0, Element::kDeviceMem))
        << shape.model;
    EXPECT_EQ(closed.warm_loads_stepped(), 0u) << shape.model;
  }
}

// --- One level's fill, stream by stream ------------------------------------
// SectoredCache::fill_warm_stream on one cache against the per-load walk of
// the same stream on another: access() on each load that opens a granule.
// Regular streams (power-of-two stride, base aligned to the larger of stride
// and granule) have their inner lines written by arithmetic, and a sparse
// stream takes the way after each set's hinted one, with no victim scan;
// both are compared with the walk in whole cache state and in the misses
// returned. Every fill runs while no page is written (takes_warm_stream):
// the fills before it wait too, and the comparison's reads write them.

/// The per-load walk of loads [from, to) of @p stream: a load opens its
/// granule when it is the first or the load before it lies in another one.
/// Returns the sector misses.
std::uint64_t step_stream(SectoredCache& cache, const WarmStream& stream,
                          std::uint64_t from, std::uint64_t to) {
  const std::uint64_t misses = cache.misses();
  const std::uint32_t g = stream.granule_shift;
  for (std::uint64_t j = from; j < to; ++j) {
    const std::uint64_t address = stream.base + j * stream.stride;
    if (j == 0 || ((address - stream.stride) >> g) != (address >> g)) {
      cache.access(address);
    }
  }
  return cache.misses() - misses;
}

/// What a cache holds before the compared stream.
enum class Before {
  kNothing,    ///< a fresh cache
  kFlushed,    ///< random loads, then a flush: stale hints and masks
  kOther,      ///< another array's fill below the stream
  kExtension,  ///< the stream's own prefix, over every set (regular only)
};

/// Fills @p stream onto two caches of @p geometry after @p before, in closed
/// form on one and by the walk on the other, and compares them.
void compare_fill(const CacheGeometry& geometry, const WarmStream& stream,
                  Before before, Xoshiro256& rng, const std::string& where) {
  SectoredCache closed(geometry);
  SectoredCache oracle(geometry);
  const std::uint64_t line = geometry.line_bytes;
  std::uint64_t first = 0;  // first load of the compared fill
  switch (before) {
    case Before::kNothing:
      break;
    case Before::kFlushed:
      for (int i = 0; i < 300; ++i) {
        const std::uint64_t address = rng.uniform_int(0, 1 << 20);
        closed.access(address);
        oracle.access(address);
      }
      closed.flush();
      oracle.flush();
      break;
    case Before::kOther: {
      const WarmStream other{stream.base / 2, line, 1 + rng.uniform_int(0, 400),
                             0};
      ASSERT_LT(other.base + other.count * other.stride, stream.base) << where;
      EXPECT_EQ(closed.fill_warm_stream(other),
                step_stream(oracle, other, 0, other.count))
          << where << ": other array's misses";
      break;
    }
    case Before::kExtension: {
      // A prefix long enough to put a line in every set, filled in closed
      // form, then the rest from the first load beyond its last line, on
      // both sides: the rest starts on a line no set holds.
      const std::uint64_t prefix = std::min<std::uint64_t>(
          stream.count - 1,
          (closed.num_sets() * line + rng.uniform_int(0, 2 * line)) /
              stream.stride);
      if (prefix == 0) break;
      EXPECT_EQ(closed.fill_warm_stream({stream.base, stream.stride, prefix,
                                         stream.granule_shift}),
                step_stream(oracle, stream, 0, prefix))
          << where << ": prefix misses";
      first = prefix;
      const std::uint64_t last_line =
          (stream.base + (prefix - 1) * stream.stride) / line;
      while (first < stream.count &&
             (stream.base + first * stream.stride) / line == last_line) {
        ++first;
      }
      break;
    }
  }
  if (first < stream.count) {
    const WarmStream rest{stream.base + first * stream.stride, stream.stride,
                          stream.count - first, stream.granule_shift};
    ASSERT_TRUE(closed.takes_warm_stream(rest)) << where;
    EXPECT_EQ(closed.fill_warm_stream(rest),
              step_stream(oracle, rest, 0, rest.count))
        << where << ": misses";
  }
  expect_same_state(closed, oracle, where);
}

TEST(WarmFill, RegularStreamsMatchTheWalk) {
  for (std::uint64_t seed = 1; seed <= 4000; ++seed) {
    Xoshiro256 rng(seed);
    const CacheGeometry geometry = random_level(rng, false, 16);
    const auto line_shift =
        static_cast<std::uint32_t>(std::countr_zero(geometry.line_bytes));
    // Granules and strides from 1 B to the line.
    const auto granule = static_cast<std::uint32_t>(
        rng.uniform_int(0, line_shift));
    const std::uint64_t stride = 1ULL << rng.uniform_int(0, line_shift);
    const std::uint64_t step = std::max<std::uint64_t>(stride, 1ULL << granule);
    std::uint64_t base = 4096 * (64 + rng.uniform_int(0, 60));
    const bool aligned = rng.uniform_int(0, 2) != 0;
    base += aligned ? step * rng.uniform_int(0, 4095 / step)
                    : rng.uniform_int(0, 4095);
    const std::uint64_t count = std::min<std::uint64_t>(
        20000,
        1 + rng.uniform_int(0, 3 * geometry.size_bytes) / stride);
    const auto before = static_cast<Before>(rng.uniform_int(0, 3));
    const std::string where =
        "seed " + std::to_string(seed) + ", granule " +
        std::to_string(1u << granule) + ", stride " + std::to_string(stride) +
        ", base " + std::to_string(base) + ", count " +
        std::to_string(count) + ", before " +
        std::to_string(static_cast<int>(before)) +
        describe({geometry});
    compare_fill(geometry, {base, stride, count, granule}, before, rng, where);
    if (HasFailure()) break;
  }
}

TEST(WarmFill, SparseStreamsMatchTheWalk) {
  for (std::uint64_t seed = 1; seed <= 4000; ++seed) {
    Xoshiro256 rng(seed);
    const CacheGeometry geometry = random_level(rng, false, 16);
    const std::uint64_t line = geometry.line_bytes;
    const std::uint64_t sets = geometry.size_bytes / line /
                               geometry.associativity;
    // A stride above the line (one set's lines apart included), or a
    // granule above it.
    std::uint64_t stride = line + 1 + rng.uniform_int(0, 3 * line);
    std::uint32_t granule = 0;
    switch (rng.uniform_int(0, 3)) {
      case 0:
        break;
      case 1:
        stride = sets * line * (1 + rng.uniform_int(0, 1));
        break;
      case 2:
        stride = line * (2 + rng.uniform_int(0, 6));
        break;
      default:
        granule = static_cast<std::uint32_t>(std::countr_zero(line)) + 1 +
                  static_cast<std::uint32_t>(rng.uniform_int(0, 2));
        stride = 1 + rng.uniform_int(0, (2ULL << granule) - 1);
    }
    const std::uint64_t base =
        4096 * (64 + rng.uniform_int(0, 60)) + rng.uniform_int(0, 4095);
    const std::uint64_t count = std::min<std::uint64_t>(
        20000, 1 + rng.uniform_int(0, 3 * geometry.size_bytes) /
                       std::max<std::uint64_t>(stride, 1ULL << granule));
    const auto before = static_cast<Before>(rng.uniform_int(0, 2));
    const std::string where =
        "seed " + std::to_string(seed) + ", granule " +
        std::to_string(1ULL << granule) + ", stride " +
        std::to_string(stride) + ", count " + std::to_string(count) +
        ", before " + std::to_string(static_cast<int>(before)) +
        describe({geometry});
    compare_fill(geometry, {base, stride, count, granule}, before, rng, where);
    if (HasFailure()) break;
  }
}

// --- Last passes decided by their own fill -----------------------------------
// Gpu::run_last_pass classifies a chase's timed pass load by load without
// stepping when the walk's own fill decides every load: cold levels that
// hold no line of the walk, or a first level whose sole fill is the walk,
// with the pass a prefix of it and a second level that holds its own fill
// of the walk whole. The closed side warms in closed form and runs the last
// pass; the oracle side warms load by load, runs the pass as one run_pass
// call per load and then flushes. Every case compares cycles, recorded
// latencies, served counts, device-memory reads, every level's hits and
// misses, and the flushed state.

/// What a step booked, compared without reading way state: every level's
/// hits and misses, and device-memory reads.
void expect_same_books(const Side& closed, const Side& oracle,
                       const std::string& where) {
  EXPECT_EQ(closed.dmem(), oracle.dmem()) << where << ": device memory";
  for (std::size_t k = 0; k < closed.caches.size(); ++k) {
    EXPECT_EQ(closed.caches[k].hits(), oracle.caches[k].hits())
        << where << ", level " << k << ": hits";
    EXPECT_EQ(closed.caches[k].misses(), oracle.caches[k].misses())
        << where << ", level " << k << ": misses";
  }
}

/// A last pass on both sides, compared in cycles, latencies, served counts
/// and books: Gpu::run_last_pass on the closed side, the per-load loop and
/// a flush on the oracle side. Returns whether the closed side decided it.
bool last_pass(Side& closed, Side& oracle, std::uint64_t base,
               std::uint64_t stride, std::uint64_t steps,
               std::uint64_t record_limit, const std::string& where) {
  ElementCounts closed_served;
  ElementCounts oracle_served;
  std::vector<std::uint32_t> closed_record;
  std::vector<std::uint32_t> oracle_record;
  closed_record.reserve(record_limit);
  oracle_record.reserve(record_limit);
  const std::uint64_t stepped = closed.gpu.timed_loads_stepped();
  const std::uint64_t cycles =
      closed.gpu.run_last_pass(closed.path, base, stride, steps,
                               &closed_served, &closed_record, record_limit);
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < steps; ++i) {
    expected += oracle.gpu.run_pass(oracle.path, base + i * stride, 0, 1,
                                    &oracle_served, &oracle_record,
                                    record_limit);
  }
  oracle.gpu.flush_caches();
  EXPECT_EQ(cycles, expected) << where << ": last pass cycles";
  EXPECT_EQ(closed_record, oracle_record) << where << ": latencies";
  EXPECT_TRUE(closed_served == oracle_served) << where << ": served";
  expect_same_books(closed, oracle, where);
  return closed.gpu.timed_loads_stepped() == stepped;
}

/// Which pass a case draws.
enum class Shape {
  kCold,  ///< no warm walk: one to three levels holding no line of the walk
  kWarm,  ///< a warm walk and a pass over a prefix of it (capped or full)
          ///< through one to three levels, the second holding its fill whole
  kHeld,  ///< the same through two or three levels, the first holding the
          ///< walk whole and the deeper ones anything
};

/// What else a case does; anything but kNone makes the pass step.
enum class Twist {
  kNone,
  kSecondFill,      ///< another array's fill onto the first level
  kDeeperOverflow,  ///< the walk overflows the first level and the second
  kOddLine,         ///< a first level whose line is not a power of two
  kAccess,          ///< one load into the walk's range moves the clock
  kOtherBase,       ///< the pass starts one load later
  kOtherStride,     ///< the pass walks at another stride
  kLonger,          ///< the pass runs one load more than the walk
};

/// What a case ran: its pass's loads, those the closed side stepped, the
/// kind of pass, and the first level's set count with the whole periods of
/// the warm walk's sets its fill spans (a walk's loads m and m + period
/// open lines in the same set).
struct LastCase {
  std::uint64_t loads = 0;
  std::uint64_t stepped = 0;
  bool capped = false;
  bool sparse = false;
  std::size_t depth = 0;
  std::uint32_t sets = 0;
  std::uint64_t periods = 0;
};

LastCase run_last_case(std::uint64_t seed, Shape shape, Twist twist) {
  Xoshiro256 rng(seed);
  std::vector<CacheGeometry> levels{
      random_level(rng, twist == Twist::kOddLine, 16)};
  const bool deeper = shape == Shape::kHeld || twist == Twist::kDeeperOverflow;
  const std::size_t depth = 1 + rng.uniform_int(deeper ? 1 : 0, 2);
  for (std::size_t k = 1; k < depth; ++k) {
    levels.push_back(random_level(rng, false, 16));
  }
  const CacheGeometry top = levels[0];
  const std::uint64_t line = top.line_bytes;
  // The walk: any stride, over up to three times the first level, or over
  // at most its lines (kHeld), or over more than twice the first two
  // levels (kDeeperOverflow).
  std::uint64_t stride = random_stride(rng, top);
  const std::uint64_t base =
      4096 * (4 + rng.uniform_int(0, 60)) + rng.uniform_int(0, 4095);
  std::uint64_t bytes = 1 + rng.uniform_int(0, 3 * top.size_bytes);
  if (shape == Shape::kHeld) {
    const std::uint64_t lines =
        1 + rng.uniform_int(0, top.size_bytes / line - 1);
    bytes = (base / line + lines) * line - base;
  } else if (twist == Twist::kDeeperOverflow) {
    bytes = 2 * (top.size_bytes + levels[1].size_bytes) + 8 * line +
            2 * levels[1].line_bytes + rng.uniform_int(0, top.size_bytes);
    stride = std::max(stride, bytes / 20000 + 1);
  }
  const std::uint64_t steps = std::clamp<std::uint64_t>(
      (bytes - 1) / stride + 1, twist == Twist::kNone ? 1 : 2, 20000);
  if (shape == Shape::kWarm && depth > 1 && twist != Twist::kDeeperOverflow) {
    // A second level with more lines than the walk spans holds it whole.
    CacheGeometry& second = levels[1];
    const std::uint64_t lines =
        ((steps - 1) * stride + 1) / second.line_bytes + 3;
    second.size_bytes =
        second.line_bytes * second.associativity *
        ((lines + second.associativity - 1) / second.associativity +
         rng.uniform_int(0, 60));
  }
  Side closed(levels);
  Side oracle(levels);
  const std::uint64_t record_limit = rng.uniform_int(0, 700);
  std::string where = "seed " + std::to_string(seed) + ", shape " +
                      std::to_string(static_cast<int>(shape)) + ", twist " +
                      std::to_string(static_cast<int>(twist)) + ", stride " +
                      std::to_string(stride) + ", steps " +
                      std::to_string(steps) + ", record " +
                      std::to_string(record_limit);
  where += describe(levels);

  // A walk on both sides: in closed form where it applies on the closed
  // one, load by load on the oracle side.
  const auto warm = [&](std::uint64_t from, std::uint64_t s, std::uint64_t n) {
    EXPECT_EQ(closed.gpu.run_warm_pass(closed.path, from, s, n),
              oracle.oracle_walk(from, s, n))
        << where << ": warm cycles";
  };
  const std::uint64_t above =
      base + steps * stride + 4096 + rng.uniform_int(0, 4096);
  if (shape == Shape::kCold) {
    // Fresh levels, levels flushed after random loads, or levels holding
    // another array above the walk only.
    switch (rng.uniform_int(0, 2)) {
      case 0:
        break;
      case 1:
        for (int i = 0; i < 100; ++i) {
          const std::uint64_t address = rng.uniform_int(0, 1 << 20);
          closed.oracle_walk(address, 0, 1);
          oracle.oracle_walk(address, 0, 1);
        }
        closed.gpu.flush_caches();
        oracle.gpu.flush_caches();
        break;
      default:
        warm(above, random_stride(rng, top), 1 + rng.uniform_int(0, 400));
    }
  } else {
    warm(base, stride, steps);
  }
  std::uint64_t pass_base = base;
  std::uint64_t pass_stride = stride;
  std::uint64_t pass_steps = steps;
  if (shape != Shape::kCold && twist == Twist::kNone &&
      rng.uniform_int(0, 1) == 0) {
    pass_steps = 1 + rng.uniform_int(0, steps - 1);  // capped
  }
  switch (twist) {
    case Twist::kNone:
    case Twist::kDeeperOverflow:
    case Twist::kOddLine:
      break;
    case Twist::kSecondFill:
      warm(above, random_stride(rng, top), 1 + rng.uniform_int(0, 400));
      break;
    case Twist::kAccess: {
      const std::uint64_t address =
          base + rng.uniform_int(0, steps - 1) * stride;
      closed.gpu.run_pass(closed.path, address, 0, 1);
      oracle.gpu.run_pass(oracle.path, address, 0, 1);
      break;
    }
    case Twist::kOtherBase:
      pass_base += stride;
      pass_steps -= 1;
      break;
    case Twist::kOtherStride:
      pass_stride += 1 + rng.uniform_int(0, 7);
      break;
    case Twist::kLonger:
      pass_steps += 1;
      break;
  }

  const std::uint64_t stepped_before = closed.gpu.timed_loads_stepped();
  last_pass(closed, oracle, pass_base, pass_stride, pass_steps, record_limit,
            where);
  for (std::size_t k = 0; k < levels.size(); ++k) {
    expect_same_state(closed.caches[k], oracle.caches[k],
                      where + ", level " + std::to_string(k));
  }
  const std::uint32_t sets = closed.caches[0].num_sets();
  const std::uint64_t span = sets * line;
  return {pass_steps, closed.gpu.timed_loads_stepped() - stepped_before,
          pass_steps < steps, stride > line, depth, sets,
          steps / (span / std::gcd(span, stride))};
}

TEST(TimedClosedForm, ColdPassesAreDecidedAndMatchThePerLoadLoop) {
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    EXPECT_EQ(run_last_case(seed, Shape::kCold, Twist::kNone).stepped, 0u)
        << "seed " << seed << ": the pass is decided";
    if (HasFailure()) break;  // one diagnosed case beats thousands
  }
}

TEST(TimedClosedForm, WarmPrefixesAreDecidedAndMatchThePerLoadLoop) {
  // Capped and full passes, dense and sparse strides, through one level
  // and through deeper ones whose second level holds its fill whole. A
  // sparse fill's lines per set are counted over one period of its sets,
  // so many sparse fills span two periods or more, some of them over a set
  // count that is not a power of two.
  std::uint64_t capped = 0;
  std::uint64_t sparse = 0;
  std::uint64_t deeper = 0;
  std::uint64_t periodic = 0;
  std::uint64_t periodic_odd_sets = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    const LastCase last = run_last_case(seed, Shape::kWarm, Twist::kNone);
    EXPECT_EQ(last.stepped, 0u) << "seed " << seed << ": the pass is decided";
    if (HasFailure()) return;
    capped += last.capped ? 1 : 0;
    sparse += last.sparse ? 1 : 0;
    deeper += last.depth > 1 ? 1 : 0;
    if (last.sparse && last.periods >= 2) {
      ++periodic;
      periodic_odd_sets += std::has_single_bit(last.sets) ? 0 : 1;
    }
  }
  EXPECT_GE(capped, 500u);
  EXPECT_GE(sparse, 300u);
  EXPECT_GE(deeper, 800u);
  EXPECT_GE(periodic, 100u);
  EXPECT_GE(periodic_odd_sets, 1u);
}

TEST(TimedClosedForm, WalksTheFirstLevelHoldsAreDecidedOnDeeperPaths) {
  // Every load hits the first level, so the deeper levels see none, hold
  // what they may.
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    EXPECT_EQ(run_last_case(seed, Shape::kHeld, Twist::kNone).stepped, 0u)
        << "seed " << seed << ": the pass is decided";
    if (HasFailure()) break;
  }
}

TEST(TimedClosedForm, DeclinedPassesStepAndStillMatch) {
  for (const Twist twist :
       {Twist::kSecondFill, Twist::kDeeperOverflow, Twist::kOddLine,
        Twist::kAccess, Twist::kOtherBase, Twist::kOtherStride,
        Twist::kLonger}) {
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
      const LastCase last = run_last_case(seed, Shape::kWarm, twist);
      EXPECT_EQ(last.stepped, last.loads)
          << "seed " << seed << ", twist " << static_cast<int>(twist)
          << ": the pass steps";
      if (HasFailure()) return;
    }
  }
  // A cold pass over an odd line steps too.
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const LastCase last = run_last_case(seed, Shape::kCold, Twist::kOddLine);
    EXPECT_EQ(last.stepped, last.loads) << "seed " << seed;
    if (HasFailure()) return;
  }
}

TEST(TimedClosedForm, SecondLevelHoldsItsFillUpToItsLineCount) {
  // A first level of 4 sets of 2 ways of 64 B lines, which a walk over 32
  // lines overflows, over a second level of 8 sets of 4 ways: 32 lines. The
  // walk's first-level misses hit the second level while it holds every
  // line of the walk; one line more overflows a set there, and the pass
  // steps.
  const std::vector<CacheGeometry> levels{{4 * 2 * 64, 64, 16, 2},
                                          {8 * 4 * 64, 64, 32, 4}};
  for (const std::uint64_t lines : {32u, 33u}) {
    Side closed(levels);
    Side oracle(levels);
    const std::uint64_t base = 4096 * 8;
    const std::uint64_t steps = lines * 64 / 16;
    const std::string where = std::to_string(lines) + " lines";
    EXPECT_EQ(closed.gpu.run_warm_pass(closed.path, base, 16, steps),
              oracle.oracle_walk(base, 16, steps))
        << where;
    EXPECT_EQ(last_pass(closed, oracle, base, 16, steps, 100, where),
              lines == 32)
        << where;
  }
}

// --- Fills onto an empty path ------------------------------------------------
// A closed-form warm fill onto an empty cache books its hits, misses, LRU
// clock and line range, and a reader writes the pages it reads; a flush
// drops what nothing read. Each case fills a random walk onto a fresh or flushed
// path of one to three levels, in closed form on one side and load by load
// on the other, then runs one reader drawn at random on both. After every
// step the sides agree in cycles, hits, misses and device-memory reads,
// none of which reads way state; at the end, in whole cache state.

/// The reader a case runs after the fill.
enum class Reader {
  kAccessInside,    ///< a load of the walk
  kAccessOutside,   ///< a load above the walk's lines
  kAccessLastSet,   ///< the last load before the flush again: the set whose
                    ///< row access() kept
  kPeek,            ///< peek() at every level
  kSnapshot,        ///< snapshot() of every level
  kSnapshotPrefix,  ///< snapshot_addresses() of a prefix of the walk
  kWalkBelow,       ///< another array's warm walk below the walk
  kWalkAbove,       ///< another array's warm walk above it
  kExtension,       ///< the walk continued
  kLastPass,        ///< a last pass over a prefix of the walk
  kFlush,           ///< a flush, then the same walk again
};
constexpr std::uint64_t kReaders = 11;

/// Runs one case; returns whether a last pass over a path of two or three
/// levels was decided.
bool run_pending_case(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto reader = static_cast<Reader>(rng.uniform_int(0, kReaders - 1));
  std::vector<CacheGeometry> levels;
  const std::size_t depth = 1 + rng.uniform_int(0, 2);
  for (std::size_t k = 0; k < depth; ++k) {
    levels.push_back(random_level(rng, false, 12));
  }
  Side closed(levels);
  Side oracle(levels);
  const CacheGeometry& first = levels[0];
  const std::uint64_t line = first.line_bytes;
  // Walks run up to three times the first level (held or not) or the
  // largest one.
  const std::uint64_t stride = random_stride(rng, first);
  std::uint64_t capacity = first.size_bytes;
  if (rng.uniform_int(0, 1) == 1) {
    for (const CacheGeometry& g : levels) {
      capacity = std::max(capacity, g.size_bytes);
    }
  }
  const std::uint64_t base = 4096 * (8 + rng.uniform_int(0, 60)) +
                             rng.uniform_int(0, 4095);
  const std::uint64_t steps = std::min<std::uint64_t>(
      20000,
      std::max<std::uint64_t>(1, (1 + rng.uniform_int(0, 3 * capacity)) /
                                     stride));
  const std::uint64_t last = base + (steps - 1) * stride;
  const std::string where =
      "seed " + std::to_string(seed) + ", reader " +
      std::to_string(static_cast<int>(reader)) + ", stride " +
      std::to_string(stride) + ", steps " + std::to_string(steps) +
      describe(levels);

  // Before the fill: fresh caches, or loads ending in one of the walk's
  // (its last, or any) and then a flush, which keeps access()'s row.
  std::uint64_t last_load = last;
  if (reader == Reader::kAccessLastSet || rng.uniform_int(0, 1) == 1) {
    if (rng.uniform_int(0, 1) == 1) {
      last_load = base + rng.uniform_int(0, steps - 1) * stride;
    }
    std::vector<std::uint64_t> loads;
    for (int i = 0; i < 100; ++i) loads.push_back(rng.uniform_int(0, 1 << 20));
    loads.push_back(last_load);
    for (Side* side : {&closed, &oracle}) {
      for (const std::uint64_t address : loads) {
        side->oracle_walk(address, 0, 1);
      }
      side->gpu.flush_caches();
    }
  }

  const std::uint64_t stepped = closed.gpu.warm_loads_stepped();
  EXPECT_EQ(closed.gpu.run_warm_pass(closed.path, base, stride, steps),
            oracle.oracle_walk(base, stride, steps))
      << where << ": fill cycles";
  EXPECT_EQ(closed.gpu.warm_loads_stepped(), stepped)
      << where << ": the fill runs in closed form";
  expect_same_books(closed, oracle, where + ", fill");

  // A warm walk on both sides (in closed form where it applies on the
  // closed one), compared in cycles.
  const auto warm = [&](std::uint64_t from, std::uint64_t s,
                        std::uint64_t n) {
    EXPECT_EQ(closed.gpu.run_warm_pass(closed.path, from, s, n),
              oracle.oracle_walk(from, s, n))
        << where << ": reader cycles";
  };
  bool decided_deeper = false;
  switch (reader) {
    case Reader::kAccessInside:
      warm(base + rng.uniform_int(0, steps - 1) * stride, 0, 1);
      break;
    case Reader::kAccessOutside:
      warm((last / line + 1 + rng.uniform_int(0, 48)) * line +
               rng.uniform_int(0, line - 1),
           0, 1);
      break;
    case Reader::kAccessLastSet:
      warm(last_load, 0, 1);
      break;
    case Reader::kPeek: {
      const std::uint64_t addresses[] = {
          base, last, last_load, base + rng.uniform_int(0, steps - 1) * stride,
          last + line};
      for (std::size_t k = 0; k < depth; ++k) {
        for (const std::uint64_t address : addresses) {
          const CacheAccess c = closed.caches[k].peek(address);
          const CacheAccess o = oracle.caches[k].peek(address);
          EXPECT_EQ(c.line_hit, o.line_hit) << where << ", level " << k;
          EXPECT_EQ(c.sector_hit, o.sector_hit) << where << ", level " << k;
        }
      }
      break;
    }
    case Reader::kSnapshot:
    case Reader::kSnapshotPrefix: {
      const std::uint64_t prefix =
          1 + rng.uniform_int(0, std::min<std::uint64_t>(steps, 500) - 1);
      for (std::size_t k = 0; k < depth; ++k) {
        CacheSnapshot c;
        CacheSnapshot o;
        if (reader == Reader::kSnapshot) {
          closed.caches[k].snapshot(c);
          oracle.caches[k].snapshot(o);
        } else {
          closed.caches[k].snapshot_addresses(base, stride, prefix, c);
          oracle.caches[k].snapshot_addresses(base, stride, prefix, o);
        }
        EXPECT_TRUE(c == o) << where << ", level " << k << ": snapshot";
      }
      break;
    }
    case Reader::kWalkBelow: {
      const std::uint64_t s = random_stride(rng, first);
      warm(base - 4096 * 3 - rng.uniform_int(0, 4096), s,
           1 + rng.uniform_int(0, 3 * 4096 / s));
      break;
    }
    case Reader::kWalkAbove:
      warm(last + 4096 + rng.uniform_int(0, 4096), random_stride(rng, first),
           1 + rng.uniform_int(0, 400));
      break;
    case Reader::kExtension:
      warm(last + stride, stride, 1 + rng.uniform_int(0, steps));
      break;
    case Reader::kLastPass: {
      const std::uint64_t prefix = rng.uniform_int(0, 1) == 0
                                       ? steps
                                       : 1 + rng.uniform_int(0, steps - 1);
      decided_deeper = last_pass(closed, oracle, base, stride, prefix,
                                 rng.uniform_int(0, 700), where) &&
                       depth > 1;
      break;
    }
    case Reader::kFlush: {
      // Every level's fill waits: the flush drops them all and clears no
      // set.
      const std::uint64_t dropped = closed.gpu.fills_dropped();
      const std::uint64_t sets = closed.gpu.flushed_sets();
      closed.gpu.flush_caches();
      oracle.gpu.flush_caches();
      EXPECT_EQ(closed.gpu.fills_dropped() - dropped, depth) << where;
      EXPECT_EQ(closed.gpu.flushed_sets(), sets) << where;
      EXPECT_EQ(oracle.gpu.fills_dropped(), 0u) << where;
      warm(base, stride, steps);
      break;
    }
  }
  expect_same_books(closed, oracle, where + ", reader");
  for (std::size_t k = 0; k < depth; ++k) {
    expect_same_state(closed.caches[k], oracle.caches[k],
                      where + ", level " + std::to_string(k));
  }
  return decided_deeper;
}

TEST(PendingFill, EveryReaderSeesWhatThePerLoadLoopWrote) {
  std::uint64_t decided_deeper = 0;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    decided_deeper += run_pending_case(seed) ? 1 : 0;
    if (HasFailure()) return;  // one diagnosed case beats thousands
  }
  EXPECT_GE(decided_deeper, 20u)
      << "too few last passes over deeper paths were decided";
}

// --- Pages written when read ---------------------------------------------
// A closed-form fill runs while no page is written and waits for every
// page, which is written, with every fill still waiting, when something
// first reads one of its sets. Each case runs one to four walks over a
// random path of one to three levels (half of whose levels span several
// pages) and then one reader, on the closed side as the engine runs them
// and on the oracle side load by load; a walk after a page was written, or
// sparse onto a level holding a line, steps. After every step the sides
// agree in cycles, hits, misses, device-memory reads, recorded latencies
// and served counts; at the end, in whole cache state.

/// The fills a case may run after its first walk.
enum class PagedStep {
  kExtension,  ///< the walk continued
  kSecond,     ///< a second array below or above the walk
  kSparse,     ///< a walk at 1.125, 1.5, 2 or 3 lines per load
};

/// The reader a case runs after its fills.
enum class PagedReader {
  kCappedPass,  ///< a timed pass over a prefix, with a record limit
  kPlacements,  ///< a capped pass, then a second array from another
                ///< placement, repeated
  kPeek,        ///< peek() at loads of every fill, at every level
  kLastPass,    ///< a last pass over the first walk, capped or full
  kFlush,       ///< a flush, then the first walk again
};
constexpr std::uint64_t kPagedReaders = 5;

/// One timed pass on both sides, compared.
void paged_pass(Side& closed, Side& oracle, std::uint64_t base,
                std::uint64_t stride, std::uint64_t steps,
                std::uint64_t record_limit, const std::string& where) {
  ElementCounts closed_served;
  ElementCounts oracle_served;
  std::vector<std::uint32_t> closed_record;
  std::vector<std::uint32_t> oracle_record;
  closed_record.reserve(record_limit);
  oracle_record.reserve(record_limit);
  const std::uint64_t cycles =
      closed.gpu.run_pass(closed.path, base, stride, steps, &closed_served,
                          &closed_record, record_limit);
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < steps; ++i) {
    expected += oracle.gpu.run_pass(oracle.path, base + i * stride, 0, 1,
                                    &oracle_served, &oracle_record,
                                    record_limit);
  }
  EXPECT_EQ(cycles, expected) << where << ": pass cycles";
  EXPECT_EQ(closed_record, oracle_record) << where << ": latencies";
  EXPECT_TRUE(closed_served == oracle_served) << where << ": served";
  expect_same_books(closed, oracle, where);
}

/// Runs one case; returns whether a last pass was decided.
bool run_paged_case(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto reader =
      static_cast<PagedReader>(rng.uniform_int(0, kPagedReaders - 1));
  std::vector<CacheGeometry> levels;
  const std::size_t depth = 1 + rng.uniform_int(0, 2);
  for (std::size_t k = 0; k < depth; ++k) {
    levels.push_back(random_level(rng, false, 16));
  }
  // In a third of the deeper paths the second level's line is below the
  // first level's sector, so the granule of its stream exceeds its line.
  if (depth > 1 && rng.uniform_int(0, 2) == 0) {
    CacheGeometry& upper = levels[0];
    CacheGeometry& lower = levels[1];
    upper.line_bytes = 128u << rng.uniform_int(0, 1);
    upper.sector_bytes = upper.line_bytes;
    upper.size_bytes = static_cast<std::uint64_t>(upper.line_bytes) *
                       upper.associativity *
                       (60 + rng.uniform_int(0, 540));
    lower.line_bytes = 32u << rng.uniform_int(0, 1);
    lower.sector_bytes = lower.line_bytes >> rng.uniform_int(0, 1);
    lower.size_bytes = static_cast<std::uint64_t>(lower.line_bytes) *
                       lower.associativity * (60 + rng.uniform_int(0, 540));
  }
  Side closed(levels);
  Side oracle(levels);
  const CacheGeometry& first = levels[0];
  const std::uint64_t line = first.line_bytes;
  // The first walk: any stride, over up to twice the first level (held or
  // not).
  const std::uint64_t stride = random_stride(rng, first);
  const std::uint64_t base = 4096 * (64 + rng.uniform_int(0, 60)) +
                             rng.uniform_int(0, 4095);
  const std::uint64_t steps = std::min<std::uint64_t>(
      20000, std::max<std::uint64_t>(
                 1, (1 + rng.uniform_int(0, 2 * first.size_bytes)) / stride));
  const std::uint64_t fills =
      reader == PagedReader::kLastPass ? 1 : 1 + rng.uniform_int(0, 3);
  std::string where = "seed " + std::to_string(seed) + ", reader " +
                      std::to_string(static_cast<int>(reader)) + ", stride " +
                      std::to_string(stride) + ", steps " +
                      std::to_string(steps) + ", fills " +
                      std::to_string(fills) + describe(levels);

  // A warm walk on both sides (in closed form where it applies on the
  // closed one), compared in cycles and books.
  const auto warm = [&](std::uint64_t from, std::uint64_t s, std::uint64_t n,
                        const std::string& what) {
    EXPECT_EQ(closed.gpu.run_warm_pass(closed.path, from, s, n),
              oracle.oracle_walk(from, s, n))
        << where << ", " << what << ": warm cycles";
    expect_same_books(closed, oracle, where + ", " + what);
  };
  std::vector<std::uint64_t> peeks{base, base + (steps - 1) * stride};
  std::uint64_t end = base + steps * stride;  // past the walk and extensions
  warm(base, stride, steps, "walk");
  for (std::uint64_t f = 1; f < fills; ++f) {
    switch (static_cast<PagedStep>(rng.uniform_int(0, 2))) {
      case PagedStep::kExtension: {
        const std::uint64_t more = 1 + rng.uniform_int(0, steps);
        warm(end, stride, more, "extension");
        end += more * stride;
        peeks.push_back(end - stride);
        break;
      }
      case PagedStep::kSecond: {
        const std::uint64_t s = random_stride(rng, first);
        const std::uint64_t n =
            1 + rng.uniform_int(0, 2 * first.size_bytes / s);
        const std::uint64_t at =
            rng.uniform_int(0, 1) == 0 && base > n * s + 8192
                ? base - n * s - 4096 - rng.uniform_int(0, 4096)
                : end + 4096 + rng.uniform_int(0, 4096);
        warm(at, s, n, "second array");
        end = std::max(end, at + n * s);
        peeks.push_back(at);
        peeks.push_back(at + (n - 1) * s);
        break;
      }
      case PagedStep::kSparse: {
        const std::uint64_t eighths[] = {9, 12, 16, 24};
        const std::uint64_t s = line * eighths[rng.uniform_int(0, 3)] / 8;
        const std::uint64_t n =
            1 + rng.uniform_int(0, 2 * first.size_bytes / s);
        const std::uint64_t at = end + 4096 + rng.uniform_int(0, 4096);
        warm(at, s, n, "sparse walk");
        end = at + n * s;
        peeks.push_back(at + rng.uniform_int(0, n - 1) * s);
        break;
      }
    }
  }

  // A pass over a prefix of the first walk, recording part of it.
  const auto capped = [&](const std::string& what) {
    const std::uint64_t prefix = 1 + rng.uniform_int(0, steps - 1);
    paged_pass(closed, oracle, base, stride, prefix,
               rng.uniform_int(0, std::min<std::uint64_t>(prefix, 300)),
               where + ", " + what);
    return prefix;
  };
  bool decided = false;
  switch (reader) {
    case PagedReader::kCappedPass:
      capped("capped pass");
      break;
    case PagedReader::kPlacements:
      for (int round = 0; round < 3; ++round) {
        capped("capped pass");
        // Array B from another placement, above everything walked so far:
        // a first level of its own, the deeper levels shared, which step it
        // where the capped pass wrote a page.
        const std::uint64_t s = random_stride(rng, first);
        const std::uint64_t n =
            1 + rng.uniform_int(0, 2 * first.size_bytes / s);
        const std::uint64_t at = end + 4096 + rng.uniform_int(0, 4096);
        EXPECT_EQ(closed.gpu.run_warm_pass(closed.other, at, s, n),
                  oracle.oracle_walk_on(oracle.other, at, s, n))
            << where << ", round " << round << ": other placement's cycles";
        expect_same_books(closed, oracle, where + ", other placement");
        end = at + n * s;
        peeks.push_back(at);
        peeks.push_back(at + (n - 1) * s);
      }
      break;
    case PagedReader::kPeek:
      break;
    case PagedReader::kLastPass:
      decided = last_pass(closed, oracle, base, stride,
                          rng.uniform_int(0, 1) == 0
                              ? steps
                              : 1 + rng.uniform_int(0, steps - 1),
                          rng.uniform_int(0, 300), where + ", last pass");
      break;
    case PagedReader::kFlush:
      closed.gpu.flush_caches();
      oracle.gpu.flush_caches();
      warm(base, stride, steps, "walk after the flush");
      break;
  }
  // Every level, and the other placement's first (the last cache).
  for (std::size_t k = 0; k < closed.caches.size(); ++k) {
    for (const std::uint64_t address : peeks) {
      const CacheAccess c = closed.caches[k].peek(address);
      const CacheAccess o = oracle.caches[k].peek(address);
      EXPECT_EQ(c.line_hit, o.line_hit) << where << ", level " << k << ": peek";
      EXPECT_EQ(c.sector_hit, o.sector_hit)
          << where << ", level " << k << ": peek";
    }
    EXPECT_TRUE(closed.caches[k] == oracle.caches[k])
        << where << ", level " << k << ": whole cache state";
  }
  return decided;
}

TEST(PagedFill, EveryReaderSeesWhatThePerLoadLoopWrote) {
  std::uint64_t decided = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    decided += run_paged_case(seed) ? 1 : 0;
    if (HasFailure()) return;  // one diagnosed case beats thousands
  }
  EXPECT_GE(decided, 50u) << "too few last passes were decided";
}

TEST(PagedFill, CappedPassWritesThePagesOfItsPrefix) {
  // One level of 512 sets of 16 ways: 8 pages of 64 sets. A walk twice its
  // size waits whole; a pass over 100 lines from set 200 writes the pages
  // of sets 200..299, pages 3 and 4, and a flush clears just their sets.
  const CacheGeometry level{512 * 16 * 64, 64, 32, 16};
  Side side({level});
  SectoredCache& cache = side.caches.front();
  ASSERT_EQ(cache.num_sets(), 512u);
  ASSERT_EQ(cache.sets_per_page(), 64u);
  const std::uint64_t base = 64 * (1024 * 512 + 200);  // line in set 200
  side.gpu.run_warm_pass(side.path, base, 64, 2 * 512 * 16);
  side.gpu.run_pass(side.path, base, 64, 100);
  side.gpu.flush_caches();
  EXPECT_EQ(side.gpu.pages_written(), 2u);
  EXPECT_EQ(side.gpu.flushed_sets(), 2u * 64);
  EXPECT_EQ(side.gpu.fills_dropped(), 1u) << "six pages never read";
  // The same walk after the flush, read by one peek at its last line (set
  // 199, page 3): one page more.
  side.gpu.run_warm_pass(side.path, base, 64, 2 * 512 * 16);
  EXPECT_TRUE(cache.peek(base + 64 * (2 * 512 * 16 - 1)).line_hit);
  side.gpu.flush_caches();
  EXPECT_EQ(side.gpu.pages_written(), 3u);
  EXPECT_EQ(side.gpu.flushed_sets(), 3u * 64);
}

TEST(PagedFill, ReadersWriteNoPageOutsideTheLineRange) {
  // The level of CappedPassWritesThePagesOfItsPrefix. A walk over sets
  // 0..63 (page 0) waits; a peek into set 300 (page 4) reads a set no line
  // of the range maps to, so it writes no page, and the flush has none to
  // unset. A walk over page 4's sets after the flush is then written there
  // when read.
  const CacheGeometry level{512 * 16 * 64, 64, 32, 16};
  Side side({level});
  const SectoredCache& cache = side.caches.front();
  const std::uint64_t base = 64 * 1024 * 512;  // line in set 0
  side.gpu.run_warm_pass(side.path, base, 64, 64);
  EXPECT_FALSE(cache.peek(base + 64 * 300).line_hit);
  side.gpu.flush_caches();
  EXPECT_EQ(side.gpu.pages_written(), 0u);
  side.gpu.run_warm_pass(side.path, base + 64 * 256, 64, 64);
  EXPECT_TRUE(cache.peek(base + 64 * 300).sector_hit);
  side.gpu.flush_caches();
  EXPECT_EQ(side.gpu.pages_written(), 1u);
}

// --- Flushes of the caches paths reached -----------------------------------
// Gpu::flush_caches flushes only the caches that run_pass and run_warm_pass
// reached since the last flush. Random sequences of compiles, passes, warm
// walks, dual-array warm walks and flushes over random placements, with a
// path compiled before a flush run after it, end in a flush: every cache
// must then equal a fresh fork's.

/// Every cache a compiled path of @p gpu reaches, once, in a fixed order:
/// the chain of every placement, space and L1 setting.
std::vector<const SectoredCache*> every_cache(Gpu& gpu) {
  std::vector<const SectoredCache*> caches;
  std::set<const SectoredCache*> seen;
  const GpuSpec& spec = gpu.spec();
  for (std::uint32_t sm = 0; sm < spec.num_sms; ++sm) {
    for (std::uint32_t core = 0; core < spec.cores_per_sm; ++core) {
      for (const Space space : {Space::kGlobal, Space::kTexture,
                                Space::kReadOnly, Space::kConstant,
                                Space::kScalar}) {
        for (const bool bypass : {false, true}) {
          AccessPath path;
          try {
            path = gpu.compile_path({sm, core}, space, {bypass});
          } catch (const std::invalid_argument&) {
            continue;  // no such chain on this vendor
          }
          for (std::size_t k = 0; k < path.depth; ++k) {
            if (seen.insert(path.levels[k].cache).second) {
              caches.push_back(path.levels[k].cache);
            }
          }
        }
      }
    }
  }
  return caches;
}

/// Runs one random sequence on @p model and checks the end state. Returns
/// whether a path compiled before a flush ran after it.
bool run_flush_case(const char* model, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Gpu gpu(registry_get(model), seed);
  const GpuSpec& spec = gpu.spec();
  const std::uint64_t arena = gpu.alloc(256 * KiB);
  const std::vector<Space> spaces =
      spec.vendor == Vendor::kNvidia
          ? std::vector<Space>{Space::kGlobal, Space::kTexture,
                               Space::kReadOnly, Space::kConstant}
          : std::vector<Space>{Space::kGlobal, Space::kScalar};
  const std::string where = std::string(model) + ", seed " +
                            std::to_string(seed);

  std::vector<AccessPath> paths;
  std::vector<std::uint64_t> compiled_at;  // flushes before each compile
  std::uint64_t flushes = 0;
  bool reran = false;
  const auto compile = [&] {
    const Placement at{
        static_cast<std::uint32_t>(rng.uniform_int(0, spec.num_sms - 1)),
        static_cast<std::uint32_t>(rng.uniform_int(0, spec.cores_per_sm - 1))};
    const Space space = spaces[rng.uniform_int(0, spaces.size() - 1)];
    paths.push_back(gpu.compile_path(at, space, {rng.uniform_int(0, 1) == 1}));
    compiled_at.push_back(flushes);
  };
  compile();
  const int ops = 30 + static_cast<int>(rng.uniform_int(0, 30));
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t kind = rng.uniform_int(0, 9);
    if (kind == 0) {
      compile();
      continue;
    }
    if (kind == 1) {
      gpu.flush_caches();
      ++flushes;
      continue;
    }
    // A pass, a warm walk or a dual-array warm walk over a compiled path.
    const std::size_t p = rng.uniform_int(0, paths.size() - 1);
    const AccessPath& path = paths[p];
    reran = reran || compiled_at[p] < flushes;
    const std::uint64_t stride = 1 + rng.uniform_int(0, 300);
    const std::uint64_t steps = 1 + rng.uniform_int(0, 400);
    const std::uint64_t base =
        arena + rng.uniform_int(0, 256 * KiB - steps * stride);
    if (kind < 5) {
      gpu.run_pass(path, base, stride, steps);
    } else if (kind < 8) {
      gpu.run_warm_pass(path, base, stride, steps);
    } else {
      // Array B from another compiled path, as amount, sharing and dual-CU
      // chases warm it after array A.
      gpu.run_warm_pass(path, base, stride, steps);
      const AccessPath& second = paths[rng.uniform_int(0, paths.size() - 1)];
      gpu.run_warm_pass(second,
                        arena + rng.uniform_int(0, 256 * KiB - steps * stride),
                        stride, steps);
    }
  }
  gpu.flush_caches();
  gpu.reset_counters();

  Gpu fresh = gpu.fork(seed);
  const std::vector<const SectoredCache*> mine = every_cache(gpu);
  const std::vector<const SectoredCache*> theirs = every_cache(fresh);
  EXPECT_EQ(mine.size(), theirs.size()) << where;
  for (std::size_t i = 0; i < std::min(mine.size(), theirs.size()); ++i) {
    if (!(*mine[i] == *theirs[i])) {
      ADD_FAILURE() << where << ": cache " << i << " differs from a fresh one";
      break;
    }
  }
  return reran;
}

TEST(FlushCaches, LeavesEveryCacheAsFreshAfterRandomSequences) {
  // MI100's sL1d groups of three and TestGPU-AMD's of two share one sL1d
  // between CUs.
  std::uint64_t reruns = 0;
  std::uint64_t cases = 0;
  for (const char* model : {"TestGPU-NV", "TestGPU-AMD", "MI100"}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      reruns += run_flush_case(model, seed) ? 1 : 0;
      ++cases;
      if (HasFailure()) return;
    }
  }
  EXPECT_GE(reruns * 2, cases)
      << "too few cases ran a path compiled before a flush after it";
}

TEST(FlushCaches, CountsTheCachesAndSetsItFlushed) {
  Gpu gpu(registry_get("TestGPU-AMD"), 1);
  const std::uint64_t base = gpu.alloc(4 * KiB);
  const AccessPath a = gpu.compile_path({0, 0}, Space::kScalar);
  const AccessPath b = gpu.compile_path({2, 0}, Space::kScalar);
  ASSERT_EQ(a.depth, 2u);  // sL1d -> L2
  ASSERT_NE(a.levels[0].cache, b.levels[0].cache);
  ASSERT_EQ(a.levels[1].cache, b.levels[1].cache);
  const SectoredCache& sl1d = *a.levels[0].cache;
  ASSERT_EQ(sl1d.num_sets(), sl1d.sets_per_page()) << "one page";
  gpu.flush_caches();  // nothing ran yet
  EXPECT_EQ(gpu.flushed_caches(), 0u);
  // Four 64 B lines into each sL1d, and both arrays into the shared L2,
  // whose second fill waits behind the first: nothing reads a page, so the
  // flush drops four fills and clears no set.
  gpu.run_warm_pass(a, base, 64, 4);
  gpu.run_warm_pass(b, base + 2 * KiB, 64, 4);
  gpu.flush_caches();
  EXPECT_EQ(gpu.flushed_caches(), 3u) << "two sL1d caches and the L2";
  EXPECT_EQ(gpu.fills_dropped(), 4u) << "one per sL1d, two in the L2";
  EXPECT_EQ(gpu.flushed_sets(), 0u);
  EXPECT_EQ(gpu.pages_written(), 0u);
  // A page something reads is written, and its range sets cleared. The
  // sL1d's one page holds all its sets, so its fill waits no more.
  gpu.run_warm_pass(a, base, 64, 4);
  EXPECT_TRUE(sl1d.peek(base).sector_hit);
  gpu.flush_caches();
  EXPECT_EQ(gpu.fills_dropped(), 5u) << "only the L2's fill, never read";
  EXPECT_EQ(gpu.pages_written(), 1u);
  EXPECT_EQ(gpu.flushed_sets(), std::min<std::uint64_t>(4, sl1d.num_sets()));
  // A path compiled before the flush lists its caches again when it runs.
  // A stepped load writes its page at each level it reaches.
  gpu.run_pass(a, base, 64, 1);
  gpu.flush_caches();
  EXPECT_EQ(gpu.flushed_caches(), 7u);
  EXPECT_EQ(gpu.fills_dropped(), 5u) << "a stepped load fills nothing";
  EXPECT_EQ(gpu.pages_written(), 3u) << "the sL1d's and the L2's";
  EXPECT_EQ(gpu.flushed_sets(),
            std::min<std::uint64_t>(4, sl1d.num_sets()) + 2);
}

}  // namespace
}  // namespace mt4g::sim
