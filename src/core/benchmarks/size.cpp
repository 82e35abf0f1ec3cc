#include "core/benchmarks/size.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "common/units.hpp"
#include "runtime/batch.hpp"
#include "stats/change_point.hpp"
#include "stats/descriptive.hpp"
#include "stats/outlier.hpp"
#include "stats/reduction.hpp"

namespace mt4g::core {
namespace {

/// Phases 1 and 1b as one serial predicate chain over record-only probes:
/// the base probe at `lower` (its verdict is ignored: it only yields the
/// jump threshold), exponential doubling until the median latency jumps,
/// then binary narrowing of [lo, hi] down to the sweep span. probe() names
/// the next size to chase; advance() consumes its verdict (true = the
/// latency jumped).
struct IntervalSearch {
  enum class Phase { kBase, kDoubling, kUpper, kNarrowing, kFound, kNoJump };
  std::uint64_t lower = 0;
  std::uint64_t upper = 0;
  std::uint64_t stride = 0;
  std::uint64_t min_span = 0;  ///< narrowing stops at max(min_span, hi / 16)
  Phase phase = Phase::kBase;
  std::uint64_t size = 0;  ///< doubling cursor
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t span = 0;  ///< narrowing target, fixed by the phase-1 hi

  std::optional<std::uint64_t> probe() const {
    switch (phase) {
      case Phase::kBase:
        return lower;
      case Phase::kDoubling:
        return size;
      case Phase::kUpper:
        return upper;
      case Phase::kNarrowing:
        return midpoint();
      default:
        return std::nullopt;
    }
  }

  void advance(bool jumped) {
    switch (phase) {
      case Phase::kBase:
        lo = lower;
        size = lower * 2;
        next_doubling();
        break;
      case Phase::kDoubling:
        if (jumped) {
          hi = size;
          narrow();
        } else {
          lo = size;
          size *= 2;
          next_doubling();
        }
        break;
      case Phase::kUpper:
        // The doubling overshot `upper`: the bound itself decides.
        if (jumped) {
          hi = upper;
          narrow();
        } else {
          phase = Phase::kNoJump;
        }
        break;
      case Phase::kNarrowing:
        (jumped ? hi : lo) = midpoint();
        settle();
        break;
      default:
        break;
    }
  }

 private:
  std::uint64_t midpoint() const {
    return round_down(lo + (hi - lo) / 2, stride);
  }
  void next_doubling() {
    phase = size <= upper ? Phase::kDoubling
            : lo < upper  ? Phase::kUpper
                          : Phase::kNoJump;
  }
  void narrow() {
    span = std::max(min_span, hi / 16);
    phase = Phase::kNarrowing;
    settle();
  }
  void settle() {
    const std::uint64_t mid = midpoint();
    if (hi - lo <= span || mid <= lo || mid >= hi) phase = Phase::kFound;
  }
};

/// Phase 6 as one serial predicate chain over full-pass `fits` probes:
/// verify the lower seed, stepping down in doubling steps while it does not
/// fit; then step the upper seed up in doubling steps while it fits; then
/// bisect at stride resolution. advance() consumes fits(probe()).
struct ExactSearch {
  enum class Phase { kLow, kHigh, kBisect, kFound, kNoFit };
  std::uint64_t lower = 0;
  std::uint64_t upper = 0;
  std::uint64_t stride = 0;
  std::uint64_t expand = 0;    ///< first expansion step
  std::uint64_t detected = 0;  ///< K-S estimate
  std::uint64_t fit_lo = 0;
  std::uint64_t miss_hi = 0;
  std::uint64_t step = 0;
  Phase phase = Phase::kLow;

  std::optional<std::uint64_t> probe() const {
    switch (phase) {
      case Phase::kLow:
        return fit_lo;
      case Phase::kHigh:
        return miss_hi;
      case Phase::kBisect:
        return midpoint();
      default:
        return std::nullopt;
    }
  }

  void advance(bool fits) {
    switch (phase) {
      case Phase::kLow:
        if (fits) {
          if (miss_hi <= fit_lo) {
            miss_hi = std::max(detected, fit_lo + stride);
          }
          step = expand;
          phase = Phase::kHigh;
          if (miss_hi >= upper) bisect();
        } else if (fit_lo > lower) {
          fit_lo = fit_lo > lower + step ? fit_lo - step : lower;
          step *= 2;
        } else {
          phase = Phase::kNoFit;
        }
        break;
      case Phase::kHigh:
        if (fits) {
          miss_hi = std::min(upper, miss_hi + step);
          step *= 2;
          if (miss_hi >= upper) bisect();
        } else {
          bisect();
        }
        break;
      case Phase::kBisect:
        (fits ? fit_lo : miss_hi) = midpoint();
        settle();
        break;
      default:
        break;
    }
  }

 private:
  std::uint64_t midpoint() const {
    return round_down(fit_lo + (miss_hi - fit_lo) / 2, stride);
  }
  void bisect() {
    phase = Phase::kBisect;
    settle();
  }
  // Invariant from here on: fits(fit_lo) && !fits(miss_hi).
  void settle() {
    const std::uint64_t mid = midpoint();
    if (miss_hi - fit_lo <= stride || mid <= fit_lo || mid >= miss_hi) {
      phase = Phase::kFound;
    }
  }
};

struct Runner {
  sim::Gpu& gpu;
  const SizeBenchOptions& options;
  std::uint64_t base;
  runtime::ReplicaPool& pool;
  std::uint64_t cycles = 0;
  std::uint32_t exact_chases = 0;
  /// Prefix-fits verdict of every sweep row measured so far (size -> did all
  /// recorded loads stay within the tracked element). Feeds the phase-6
  /// bound seeding; only an approximation of the full-pass predicate, so
  /// phase 6 verifies every seed before trusting it.
  std::map<std::uint64_t, bool> sweep_fits;
  /// Probes per run-ahead round: the largest full binary tree of chain
  /// steps (2^levels - 1) that the batch's participants run at once. Below
  /// three participants this stays 1: no run-ahead.
  std::size_t ahead_probes = 1;

  Runner(sim::Gpu& gpu_, const SizeBenchOptions& options_,
         std::uint64_t base_, runtime::ReplicaPool& pool_)
      : gpu(gpu_), options(options_), base(base_), pool(pool_) {
    const std::uint32_t participants = runtime::batch_participants(pool);
    while (ahead_probes * 2 + 1 <= participants) {
      ahead_probes = ahead_probes * 2 + 1;
    }
  }

  /// @param full_pass phase-6 `fits` chases need the whole timed pass for
  ///        the exact served_by classification; everything else consumes
  ///        only the recorded prefix and caps the pass at the record budget.
  runtime::PChaseConfig config_for(std::uint64_t array_bytes,
                                   bool full_pass,
                                   std::uint32_t resample = 0) const {
    runtime::PChaseConfig config;
    config.space = options.target.space;
    config.flags = options.target.flags;
    config.base = base;
    config.array_bytes = array_bytes;
    config.stride_bytes = options.stride;
    config.record_count = options.record_count;
    config.warmup = true;
    config.where = options.where;
    config.max_timed_steps = full_pass ? 0 : options.record_count;
    config.resample = resample;
    return config;
  }

  runtime::PChaseResult chase(const runtime::PChaseConfig& config) {
    const runtime::ChaseSpec spec = runtime::ChaseSpec::plain(config);
    auto results = runtime::run_chase_batch(gpu, std::span(&spec, 1), &pool);
    cycles += results[0].total_cycles;
    return std::move(results[0]);
  }

  /// Median recorded latency of one run — the jump detector for phase 1/2.
  double median_latency(std::uint64_t array_bytes) {
    const auto result = chase(config_for(array_bytes, /*full_pass=*/false));
    return stats::summarize(
               std::span<const std::uint32_t>(result.latencies))
        .p50;
  }

  /// Exact predicate: did every timed load stay within the tracked element?
  bool fits(std::uint64_t array_bytes) {
    ++exact_chases;
    const auto result = chase(config_for(array_bytes, /*full_pass=*/true));
    return hit_fraction(result, options.target.element) >= 0.999;
  }

  /// Walks a serial predicate chain (IntervalSearch, ExactSearch) to its
  /// end, feeding it each probe's @p verdict. Every probe is chased through
  /// run_chase_batch in serial order; run-ahead only decides whether that
  /// batch finds the probe already measured.
  template <class Chain, class Verdict>
  void walk(Chain& chain, bool full_pass, Verdict&& verdict) {
    while (const std::optional<std::uint64_t> size = chain.probe()) {
      if (ahead_probes > 1) run_ahead(chain, full_pass);
      chain.advance(verdict(*size));
    }
  }

  /// Runs the chain's next probes ahead, breadth-first over both verdicts
  /// of every step: the midpoint, then both quarter points, and so on.
  /// run_chase_ahead makes this a no-op while the probe needed now still
  /// waits from an earlier round.
  template <class Chain>
  void run_ahead(const Chain& chain, bool full_pass) {
    std::vector<runtime::ChaseSpec> specs;
    std::deque<Chain> frontier{chain};
    while (!frontier.empty() && specs.size() < ahead_probes) {
      const Chain node = frontier.front();
      frontier.pop_front();
      const std::optional<std::uint64_t> size = node.probe();
      if (!size) continue;
      const auto spec =
          runtime::ChaseSpec::plain(config_for(*size, full_pass));
      if (std::find(specs.begin(), specs.end(), spec) != specs.end()) {
        continue;
      }
      specs.push_back(spec);
      for (const bool verdict : {true, false}) {
        frontier.push_back(node);
        frontier.back().advance(verdict);
      }
    }
    runtime::run_chase_ahead(gpu, specs, pool);
  }
};

}  // namespace

SizeBenchResult run_size_benchmark(sim::Gpu& gpu,
                                   const SizeBenchOptions& options) {
  if (options.stride == 0 || options.lower == 0 ||
      options.upper <= options.lower) {
    throw std::invalid_argument("size benchmark: bad search bounds");
  }
  SizeBenchResult out;
  const std::uint64_t lower = round_up(options.lower, options.stride);
  const std::uint64_t upper = round_up(options.upper, options.stride);
  runtime::ReplicaPool local_pool;
  Runner runner(gpu, options, gpu.alloc(upper + options.stride, 256),
                options.chase_pool ? *options.chase_pool : local_pool);
  // Run-ahead results the chains never committed die with the benchmark.
  struct DiscardAhead {
    runtime::ReplicaPool& pool;
    ~DiscardAhead() { runtime::discard_chase_ahead(pool); }
  } discard_ahead{runner.pool};

  // --- Phases 1 + 1b: exponential doubling until the latency jumps, then
  // binary-search narrowing to bound the sweep cost. ------------------------
  IntervalSearch interval{
      lower, upper, options.stride,
      static_cast<std::uint64_t>(options.stride) * options.max_sweep_points};
  std::optional<double> jump_threshold;  // set by the base probe
  runner.walk(interval, /*full_pass=*/false, [&](std::uint64_t size) {
    const double latency = runner.median_latency(size);
    if (!jump_threshold) {
      jump_threshold = std::max(latency * 1.4, latency + 10.0);
      return false;
    }
    return latency > *jump_threshold;
  });
  if (interval.phase == IntervalSearch::Phase::kNoJump) {
    out.upper_bound_hit = true;
    out.cycles = runner.cycles;
    out.exact_chases = runner.exact_chases;
    return out;
  }
  const std::uint64_t lo = interval.lo;
  const std::uint64_t hi = interval.hi;

  // --- Phases 2-4: sweep, outlier screening (with widening), K-S. ----------
  //
  // Incremental engine: rows are kept by array size and the step is frozen
  // at the initial span, so a widening extends the same size grid and only
  // the newly exposed edge points (plus spike-flagged points, which get
  // fresh data via a bumped resample index) are measured — every clean row
  // is reused. Chases go through run_chase_batch: each runs on a reset
  // replica with a (seed, spec) noise stream, making the series invariant
  // under the pool's thread count.
  //
  // `refreshed` spans the coarse and refinement sweeps: a point re-measured
  // once keeps its bumped resample index, so a later sweep that re-requests
  // it reuses the fresh data instead of resurrecting the spiky original.
  std::set<std::uint64_t> refreshed;  // re-measured once (resample == 1)
  auto sweep_and_detect =
      [&](std::uint64_t sweep_lo, std::uint64_t sweep_hi,
          std::uint32_t max_points,
          SizeBenchResult& result) -> std::optional<stats::ChangePoint> {
    const std::uint64_t step = std::max<std::uint64_t>(
        options.stride,
        round_up((sweep_hi - sweep_lo) / std::max<std::uint32_t>(max_points, 1),
                 options.stride));
    std::map<std::uint64_t, std::vector<std::uint32_t>> rows;
    std::set<std::uint64_t> respike;    // erased as spiked, awaiting fresh data
    for (std::uint32_t attempt = 0;; ++attempt) {
      std::vector<std::uint64_t> sizes;
      for (std::uint64_t size = sweep_lo; size <= sweep_hi; size += step) {
        sizes.push_back(size);
      }
      std::vector<std::uint64_t> missing;
      for (const std::uint64_t size : sizes) {
        if (!rows.count(size)) missing.push_back(size);
      }
      if (!missing.empty()) {
        std::vector<runtime::ChaseSpec> specs;
        specs.reserve(missing.size());
        for (const std::uint64_t size : missing) {
          specs.push_back(runtime::ChaseSpec::plain(runner.config_for(
              size, /*full_pass=*/false,
              /*resample=*/refreshed.count(size) ? 1 : 0)));
        }
        auto measured = runtime::run_chase_batch(gpu, specs, &runner.pool);
        for (std::size_t i = 0; i < missing.size(); ++i) {
          runner.cycles += measured[i].total_cycles;
          runner.sweep_fits[missing[i]] =
              hit_fraction(measured[i], options.target.element) >= 0.999;
          if (options.sweep_probe) {
            options.sweep_probe(missing[i], respike.erase(missing[i]) > 0);
          }
          rows.emplace(missing[i], std::move(measured[i].latencies));
        }
      }
      std::vector<std::vector<std::uint32_t>> ordered;
      ordered.reserve(sizes.size());
      for (const std::uint64_t size : sizes) ordered.push_back(rows.at(size));
      const std::vector<double> reduced = stats::geometric_reduction(ordered);
      const auto screen = stats::screen_outliers(reduced);
      if (!screen.clean() && attempt < options.max_widenings) {
        bool changed = false;
        for (const std::size_t idx : screen.spike_indices) {
          // One fresh measurement per point: a point that stays spiky on its
          // second sample is genuine structure (or persistent disturbance);
          // despike() below neutralises it for the K-S either way, so
          // chasing it a third time buys nothing.
          if (!refreshed.insert(sizes[idx]).second) continue;
          respike.insert(sizes[idx]);
          rows.erase(sizes[idx]);
          changed = true;
        }
        // Widen on the frozen grid so existing rows stay reusable; the
        // clamped extension never leaves [lower, upper].
        if (screen.change_at_lower_edge && sweep_lo > lower) {
          const std::uint64_t room = (sweep_lo - lower) / step;
          sweep_lo -= std::min<std::uint64_t>(4, room) * step;
          changed = changed || room > 0;
        }
        if (screen.change_at_upper_edge && sweep_hi < upper) {
          const std::uint64_t room = (upper - sweep_hi) / step;
          sweep_hi += std::min<std::uint64_t>(4, room) * step;
          changed = changed || room > 0;
        }
        if (changed) {
          ++result.widenings;
          continue;
        }
        // Edges pinned at the search bounds and nothing flagged as a spike:
        // re-running would reproduce the identical series, so fall through
        // to detection with what we have.
      }
      const std::vector<double> clean = stats::despike(reduced);
      result.sweep_sizes = sizes;
      result.reduced = reduced;
      return stats::find_change_point(clean);
    }
  };

  auto change_point = sweep_and_detect(lo, hi, options.max_sweep_points, out);
  if (!change_point || change_point->index == 0) {
    out.cycles = runner.cycles;
    out.exact_chases = runner.exact_chases;
    return out;
  }
  out.found = true;
  out.detected_bytes = out.sweep_sizes[change_point->index - 1];
  out.confidence = change_point->confidence;

  // --- Phase 5: refinement sweep around the change point. ------------------
  const std::uint64_t coarse_step =
      out.sweep_sizes.size() > 1 ? out.sweep_sizes[1] - out.sweep_sizes[0]
                                 : options.stride;
  if (coarse_step > options.stride) {
    const std::uint64_t window_lo =
        out.detected_bytes > 2 * coarse_step + lower
            ? out.detected_bytes - 2 * coarse_step
            : lower;
    const std::uint64_t window_hi =
        std::min(upper, out.detected_bytes + 2 * coarse_step);
    SizeBenchResult refine;
    const auto refined = sweep_and_detect(window_lo, window_hi,
                                          options.refine_sweep_points, refine);
    out.widenings += refine.widenings;
    if (refined && refined->index > 0) {
      out.detected_bytes = refine.sweep_sizes[refined->index - 1];
      out.confidence = std::max(out.confidence, refined->confidence);
      // Keep the coarse sweep as the reported series (it shows the full
      // cliff, like Fig. 2); the refinement only sharpens the boundary.
    }
  }

  // --- Phase 6: exact boundary via bisection on the fall-through predicate.
  {
    // The sweep rows already bracket the boundary: seed the bisection with
    // the nearest measured fitting size at or below the estimate and the
    // nearest measured missing size above it. The seeds come from recorded
    // prefixes, so both are verified with full-pass chases — the expansion
    // steps remain as the fallback when a seed lied. Without usable rows
    // the walk expands outward in coarse steps first
    // (the K-S estimate can be off by a sweep step), then bisects at
    // fetch-granularity resolution. The lower expansion must be able to
    // reach `lower` itself — the cache size can coincide with the search
    // bound (e.g. a 1 KiB cache probed from 1 KiB). Expansion steps double:
    // when the sweep window missed the boundary entirely (a late phase-1
    // jump), a fixed coarse step would crawl over the gap chase by chase;
    // doubling reaches any distance in O(log) chases and the bisection
    // recovers the precision.
    ExactSearch exact;
    exact.lower = lower;
    exact.upper = upper;
    exact.stride = options.stride;
    exact.expand = std::max<std::uint64_t>(
        coarse_step, static_cast<std::uint64_t>(options.stride));
    exact.step = exact.expand;
    exact.detected = out.detected_bytes;
    exact.fit_lo = out.detected_bytes;
    std::uint64_t seed_lo = 0;
    for (const auto& [size, prefix_fits] : runner.sweep_fits) {
      if (prefix_fits && size <= out.detected_bytes && size > seed_lo) {
        seed_lo = size;
      } else if (!prefix_fits && size > out.detected_bytes &&
                 (exact.miss_hi == 0 || size < exact.miss_hi)) {
        exact.miss_hi = size;
      }
    }
    if (seed_lo != 0) exact.fit_lo = seed_lo;
    runner.walk(exact, /*full_pass=*/true,
                [&](std::uint64_t size) { return runner.fits(size); });
    if (exact.phase == ExactSearch::Phase::kNoFit) {
      // No size fits, down to and including `lower`: the K-S saw a latency
      // cliff of a deeper level (or noise), not this element's boundary.
      // Reporting `lower` would fabricate a fit that was never observed;
      // keep the change-point estimate and flag the condition.
      out.exact_bytes = out.detected_bytes;
      out.exact_fallback = true;
    } else {
      out.exact_bytes = exact.fit_lo;
    }
  }

  out.cycles = runner.cycles;
  out.exact_chases = runner.exact_chases;
  return out;
}

}  // namespace mt4g::core
