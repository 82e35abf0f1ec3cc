// The simulated GPU device.
//
// A Gpu owns the functional cache state of one chip: per-SM physical caches
// (with logical-space sharing and multi-segment "amount" layouts), GPU-level
// L2 partitions, an optional L3, AMD sL1d caches shared between CU groups,
// and a flat device memory. Every load walks the hierarchy of its logical
// space, updates cache state, and yields a noisy latency in clock cycles —
// the exact observable MT4G's p-chase records on real hardware. Single loads
// go through Gpu::access(); the runtime's p-chase kernels execute whole
// passes through a compiled AccessPath, which resolves the chain once and
// then runs allocation-free: warm walks via Gpu::run_warm_pass(), and the
// timed pass that ends every chase via Gpu::run_last_pass(), which leaves
// the Gpu flushed.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "sim/cache.hpp"
#include "sim/noise.hpp"
#include "sim/spec.hpp"
#include "sim/types.hpp"

namespace mt4g::sim {

/// Outcome of one simulated load, before noise.
struct AccessResult {
  Element served_by = Element::kDeviceMem;  ///< deepest level that hit
  std::uint32_t latency = 0;                ///< noisy observed latency
};

/// A compiled cache chain: the per-load resolution work of access() — the
/// chain construction and the segment map lookups — done once per
/// (space, flags, placement) and frozen into direct cache pointers with their
/// hit latencies. Compiling allocates nothing (the levels live inline), and
/// executing loads through a compiled path (Gpu::run_pass) allocates nothing
/// per load.
///
/// A path borrows cache pointers from its Gpu: it is invalidated whenever the
/// owning Gpu rebuilds caches (set_l2_fetch_granularity). run_pass detects a
/// stale path via the epoch and throws rather than chasing dangling pointers.
struct AccessPath {
  struct Level {
    SectoredCache* cache = nullptr;
    Element element = Element::kDeviceMem;
    /// Hit latency in whole cycles (the spec latency rounded half-up once at
    /// compile time, so the per-load noise sampling stays integer-only).
    std::uint32_t latency = 0;
  };
  /// Deepest modelled chain is three levels (e.g. CL1 -> CL1.5 -> L2 or
  /// vL1 -> L2 -> L3); one spare slot for future hierarchies.
  static constexpr std::size_t kMaxLevels = 4;

  std::array<Level, kMaxLevels> levels{};
  std::size_t depth = 0;
  /// Serves every load that misses all levels: device memory, or the
  /// scratchpad (Shared Memory / LDS) for Space::kShared paths.
  Element terminal = Element::kDeviceMem;
  std::uint32_t terminal_latency = 0;  ///< rounded like Level::latency
  bool terminal_is_dmem = true;  ///< full misses count as device-memory reads
  std::uint64_t epoch = 0;       ///< must equal Gpu::path_epoch() when used
};

class Gpu {
 public:
  /// @param mig optional MIG profile restricting the visible resources;
  ///        only meaningful for specs that define mig_profiles.
  /// @param noise measurement-noise parameters (jitter/outlier model).
  explicit Gpu(const GpuSpec& spec, std::uint64_t seed = 42,
               std::optional<MigProfile> mig = std::nullopt,
               const NoiseParams& noise = {});

  /// cudaDeviceSetLimit analogue: newer NVIDIA L2 caches have a configurable
  /// fetch granularity (paper Sec. IV-D). Rebuilds the L2 partitions with the
  /// new sector size (must divide the L2 line size); their content is lost
  /// but accumulated hit/miss counters carry over, and previously compiled
  /// AccessPaths become stale (run_pass rejects them via the path epoch).
  /// Throws std::invalid_argument for invalid granularities or GPUs without
  /// an L2.
  void set_l2_fetch_granularity(std::uint32_t bytes);

  /// Currently effective L2 fetch granularity (spec value unless overridden).
  std::uint32_t l2_fetch_granularity() const;

  const GpuSpec& spec() const { return spec_; }
  const std::optional<MigProfile>& mig() const { return mig_; }

  /// The seed this Gpu was constructed with; the batch runner derives
  /// per-chase noise-stream seeds from it (runtime::chase_noise_seed).
  std::uint64_t seed() const { return seed_; }

  /// A replica for parallel batch execution: same spec (including any
  /// set_l2_fetch_granularity mutation), same MIG restriction, same noise
  /// parameters and the same allocator state — addresses handed out by this
  /// Gpu are valid in the replica — but cold caches, zeroed counters and a
  /// noise stream seeded with @p noise_seed. Forking never mutates *this,
  /// and costs cache geometries and empty page tables (see SectoredCache).
  Gpu fork(std::uint64_t noise_seed) const;

  /// Restarts the noise stream as if the Gpu had been constructed with
  /// @p noise_seed (same parameters, fresh xoshiro + splitmix state). The
  /// batch runner calls this before every chase so a replica's measurement
  /// depends only on (seed, chase config), never on what ran before.
  void reseed_noise(std::uint64_t noise_seed);

  /// Number of SMs/CUs visible (restricted under MIG).
  std::uint32_t visible_sms() const;

  /// L2 bytes a single SM can observe: min(MIG L2, one L2 partition).
  std::uint64_t single_sm_visible_l2() const;

  /// Bump allocator over the simulated global heap; addresses are unique per
  /// Gpu instance. Alignment defaults to 256 B (texture alignment).
  std::uint64_t alloc(std::uint64_t bytes, std::uint64_t alignment = 256);

  /// Issues one load and returns its noisy latency in cycles.
  std::uint32_t access(const Placement& where, Space space,
                       std::uint64_t address, AccessFlags flags = {});

  /// Like access() but also reports which level served the load (noise-free
  /// classification for tests and the exact bisection predicates).
  /// Implemented as a thin wrapper over compile_path() + run_pass(): one
  /// compiled-path load is observationally identical to one access().
  AccessResult access_traced(const Placement& where, Space space,
                             std::uint64_t address, AccessFlags flags = {});

  /// Resolves the cache chain of (space, flags, placement) into direct cache
  /// pointers + latencies. Throws std::invalid_argument for spaces with no
  /// load path on this vendor (e.g. kScalar on NVIDIA) and std::out_of_range
  /// for SM indices beyond the chip.
  AccessPath compile_path(const Placement& where, Space space,
                          AccessFlags flags = {});

  /// Current path epoch; bumped whenever compiled paths become stale because
  /// a cache was rebuilt (set_l2_fetch_granularity).
  std::uint64_t path_epoch() const { return path_epoch_; }

  /// Executes @p steps loads at base, base + stride, ... through a compiled
  /// path: the batched equivalent of calling access_traced() per address,
  /// with identical cache-state, counter and noise-stream effects, but zero
  /// heap allocation per load. Returns the summed noisy latency in cycles.
  /// Every load is stepped.
  ///
  /// @param served    when non-null, the per-element served counters are
  ///                  accumulated into it (one increment per load).
  /// @param record    when non-null, per-load latencies are appended until
  ///                  record->size() reaches @p record_limit. The caller
  ///                  reserves capacity; run_pass never does.
  /// Throws std::logic_error when @p path is stale (epoch mismatch).
  std::uint64_t run_pass(const AccessPath& path, std::uint64_t base,
                         std::uint64_t stride_bytes, std::uint64_t steps,
                         ElementCounts* served = nullptr,
                         std::vector<std::uint32_t>* record = nullptr,
                         std::uint64_t record_limit = 0);

  /// The timed pass that ends a chase: exactly run_pass() followed by
  /// flush_caches() (latencies, served counts, cycles, every cache's hits
  /// and misses, device-memory reads and the noise stream). Nothing reads
  /// the way state the pass would leave, so when the walk's own fill
  /// decides every load, the pass is classified without stepping and
  /// writes no page:
  ///   * cold: no level holds a line of the walk (run_warm_pass's closed
  ///     form), so a load reaching a level hits there iff the load before
  ///     it fell in the same sector of that level;
  ///   * warm: the first level's sole fill (SectoredCache::sole_fill) is
  ///     this walk at granule 0, dense or sparse, and the pass is that walk
  ///     or a prefix of it. Under LRU, a load hits the first level iff its
  ///     set holds at most `ways` lines of the fill, or the load before it
  ///     filled its sector; its misses are loads the second level received
  ///     first, so they hit there when its first fill was this walk and it
  ///     holds every line, and reach the terminal on a one-level path.
  /// Only the recorded prefix is classified load by load; the rest is
  /// counted (a sparse warm pass counts its fill's lines per set, on up to
  /// kCountedSets sets) and draws its noise in bulk (NoiseModel::noise_sum).
  /// Any other pass steps (run_pass).
  std::uint64_t run_last_pass(const AccessPath& path, std::uint64_t base,
                              std::uint64_t stride_bytes, std::uint64_t steps,
                              ElementCounts* served = nullptr,
                              std::vector<std::uint32_t>* record = nullptr,
                              std::uint64_t record_limit = 0);

  /// Executes @p steps loads through a compiled path with the exact cache
  /// state effects of run_pass but no noise sampling and no recording: the
  /// summed latency is the deterministic base-latency total of the walk, a
  /// pure function of (path, base, stride, steps, prior cache state). This
  /// is the warm-up engine: because warm-up consumes zero noise draws, a
  /// timed pass behaves identically however its warm state was produced.
  ///
  /// A walk with a positive stride never returns to a line it has left, so
  /// when no level holds a line between its first and last load (none was
  /// allocated there since the level's last flush), every reuse distance is
  /// infinite and the whole walk is arithmetic
  /// (SectoredCache::fill_warm_stream, level by level). A level writes that
  /// fill only into the pages of its sets something reads, when it first
  /// reads them, and a flush drops the rest unwritten. Any other walk steps
  /// every load: one into lines a level holds or onto a level that wrote a
  /// page since its flush, a walk of stride 0, and a path with a
  /// non-power-of-two line or sector or one cache twice.
  std::uint64_t run_warm_pass(const AccessPath& path, std::uint64_t base,
                              std::uint64_t stride_bytes, std::uint64_t steps);

  /// Single noise-free load: the reference-engine counterpart of
  /// run_warm_pass, observationally identical to one warm step. Always
  /// stepped, so it is also the oracle of the closed form.
  std::uint32_t warm_access(const Placement& where, Space space,
                            std::uint64_t address, AccessFlags flags = {});

  /// Warm-walk loads executed one by one so far (the rest were computed in
  /// closed form); never reset.
  std::uint64_t warm_loads_stepped() const { return warm_loads_stepped_; }

  /// Timed loads executed one by one so far (run_pass, and the last passes
  /// that step); never reset.
  std::uint64_t timed_loads_stepped() const { return timed_loads_stepped_; }

  /// Drops the content of all modelled caches. Only a cache a path reached
  /// (every pass lists its path's caches, with no search and no
  /// allocation) can hold anything, so only the caches listed since the
  /// last flush are flushed; a path compiled before a flush lists its
  /// caches again when it next runs. A cache clears only the sets of the
  /// pages written since its last flush, and drops the warm fills still
  /// waiting for the others.
  void flush_caches();

  /// Caches flush_caches() flushed so far, the sets it cleared in them
  /// (SectoredCache::flush), the warm fills still waiting for a page that
  /// it dropped, and the pages the flushed caches had written since their
  /// last flush; never reset.
  std::uint64_t flushed_caches() const { return flushed_caches_; }
  std::uint64_t flushed_sets() const { return flushed_sets_; }
  std::uint64_t fills_dropped() const { return fills_dropped_; }
  std::uint64_t pages_written() const { return pages_written_; }

  /// Cumulative sector misses observed by a cache element on SM @p sm
  /// (aggregated over segments; GPU-scoped elements ignore @p sm).
  std::uint64_t miss_count(std::uint32_t sm, Element element) const;
  std::uint64_t hit_count(std::uint32_t sm, Element element) const;
  void reset_counters();

  /// The scratchpad (Shared Memory / LDS) load latency, noisy.
  std::uint32_t scratchpad_access();

  NoiseModel& noise() { return noise_; }

 private:
  /// Most sets a sparse warm last pass counts its fill's lines over.
  static constexpr std::uint32_t kCountedSets = 1u << 14;

  struct PhysicalCache {
    Element representative;  ///< element whose geometry/latency built it
    std::vector<SectoredCache> segments;
  };

  // Per-SM physical caches: sm -> physical_group -> cache (with segments).
  using SmCaches = std::map<std::uint32_t, PhysicalCache>;

  /// Throws when @p path is stale, then puts its caches not listed yet on
  /// the flush list.
  void list_caches(const AccessPath& path);
  /// The stream each level of @p path sees of the walk base + j * stride
  /// (j < steps): a level's granule is the largest sector above it. False,
  /// with @p streams unspecified, unless every level counts its stream in
  /// closed form (SectoredCache::counts_warm_stream, and takes_warm_stream
  /// when @p fill) and no cache repeats.
  bool walk_streams(const AccessPath& path, std::uint64_t base,
                    std::uint64_t stride_bytes, std::uint64_t steps, bool fill,
                    std::array<WarmStream, AccessPath::kMaxLevels>& streams)
      const;
  SectoredCache* segment_for(const Placement& where, Element element);
  double level_latency(Element element) const;
  std::uint32_t rounded_latency(Element element) const;

  GpuSpec spec_;
  std::optional<MigProfile> mig_;
  std::uint64_t seed_ = 0;
  NoiseModel noise_;
  std::vector<SmCaches> sm_caches_;            // indexed by SM
  std::vector<SectoredCache> l2_segments_;     // GPU level
  std::unique_ptr<SectoredCache> l3_;          // AMD CDNA3
  std::map<std::uint32_t, SectoredCache> sl1d_;  // keyed by physical CU group
  /// Caches a path reached since the last flush: what flush_caches() visits.
  /// Reserved at construction for every cache, so listing never allocates.
  std::vector<SectoredCache*> flush_list_;
  std::uint64_t heap_top_ = 4096;              // never hand out address 0
  std::uint64_t dmem_accesses_ = 0;
  std::uint64_t warm_loads_stepped_ = 0;
  std::uint64_t timed_loads_stepped_ = 0;
  std::uint64_t flushed_caches_ = 0;
  std::uint64_t flushed_sets_ = 0;
  std::uint64_t fills_dropped_ = 0;
  std::uint64_t pages_written_ = 0;
  std::uint64_t path_epoch_ = 0;               // invalidates compiled paths
};

}  // namespace mt4g::sim
