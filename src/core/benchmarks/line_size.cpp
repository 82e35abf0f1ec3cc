#include "core/benchmarks/line_size.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/units.hpp"
#include "runtime/batch.hpp"

namespace mt4g::core {
namespace {

/// Latencies stored per grid chase; every chase caps its timed pass here.
constexpr std::uint32_t kRecordCount = 512;
/// Array sizes in [1.1, 1.9] * cache.
constexpr std::uint32_t kSizePoints = 9;
static_assert(kSizePoints >= 5, "the adaptive probe takes points 3 and 4");

}  // namespace

LineSizeBenchResult run_line_size_benchmark(
    sim::Gpu& gpu, const LineSizeBenchOptions& options) {
  if (options.cache_bytes == 0 || options.fetch_granularity == 0) {
    throw std::invalid_argument("line size benchmark: missing inputs");
  }
  LineSizeBenchResult out;
  const std::uint32_t fg = options.fetch_granularity;
  const std::uint32_t stride_step = std::max<std::uint32_t>(4, fg / 2);
  const std::uint32_t max_stride = 8 * fg;

  // Array sizes spanning (cache, 2*cache): where the per-stride apparent
  // capacity C * stride/line determines whether misses appear.
  std::vector<std::uint64_t> array_sizes;
  for (std::uint32_t k = 0; k < kSizePoints; ++k) {
    const double factor =
        1.1 + 0.8 * static_cast<double>(k) /
                  static_cast<double>(kSizePoints - 1);
    array_sizes.push_back(round_up(
        static_cast<std::uint64_t>(factor *
                                   static_cast<double>(options.cache_bytes)),
        fg));
  }

  // Candidate strides: the smallest stride-step multiples strictly above the
  // fetch granularity, up to 8x the granularity.
  std::vector<std::uint32_t> strides;
  const std::uint32_t first_stride = round_up(fg + 1, stride_step);
  for (std::uint32_t stride = first_stride; stride <= max_stride;
       stride += stride_step) {
    strides.push_back(stride);
  }

  // One arena reused by every grid point: batched chases run on reset
  // replicas, so sharing a base cannot couple them, and a single allocation
  // keeps the owning Gpu's heap layout independent of the grid shape (and of
  // whether the adaptive probe fell back to the full grid).
  const std::uint64_t arena =
      gpu.alloc(array_sizes.back() + max_stride, 256);

  // (stride, array size) grid points are independent measurements: one
  // batch per probe. The scores read only the recorded latency prefix, so
  // every chase caps its timed pass at the record budget.
  const auto measure = [&](const std::vector<std::size_t>& size_idx) {
    std::vector<runtime::ChaseSpec> specs;
    specs.reserve(strides.size() * size_idx.size());
    for (const std::uint32_t stride : strides) {
      for (const std::size_t k : size_idx) {
        runtime::PChaseConfig config;
        config.space = options.target.space;
        config.flags = options.target.flags;
        config.stride_bytes = stride;
        config.array_bytes = round_up(array_sizes[k], stride);
        config.base = arena;
        config.record_count = kRecordCount;
        config.max_timed_steps = kRecordCount;
        config.warmup = true;
        specs.push_back(runtime::ChaseSpec::plain(config));
      }
    }
    auto measured = runtime::run_chase_batch(gpu, specs, options.chase_pool);
    for (const auto& result : measured) out.cycles += result.total_cycles;
    return measured;
  };

  // Per-stride, per-size miss fractions against the global hit-level floor:
  // every stride is a candidate (> fg), so every recorded latency
  // contributes to the floor.
  const auto miss_fractions = [&](const auto& measured, std::size_t points) {
    double floor = std::numeric_limits<double>::infinity();
    for (const auto& result : measured) {
      for (std::uint32_t v : result.latencies) {
        floor = std::min(floor, static_cast<double>(v));
      }
    }
    std::vector<std::vector<double>> fractions(strides.size());
    for (std::size_t s = 0; s < strides.size(); ++s) {
      for (std::size_t p = 0; p < points; ++p) {
        const auto& sample = measured[s * points + p].latencies;
        std::size_t high = 0;
        for (std::uint32_t v : sample) {
          if (static_cast<double>(v) > floor + 40.0) ++high;
        }
        fractions[s].push_back(sample.empty()
                                   ? 0.0
                                   : static_cast<double>(high) /
                                         static_cast<double>(sample.size()));
      }
    }
    return fractions;
  };

  // Scores the grid and detects the cliff; returns false when the contrast
  // between the pivot and the best-behaved stride is too low to decide.
  const auto score = [&](const std::vector<std::vector<double>>& fractions) {
    // Raw miss score per stride: mean miss fraction across measured sizes.
    std::vector<double> raw;
    raw.reserve(strides.size());
    for (const std::vector<double>& f : fractions) {
      double total = 0.0;
      for (const double v : f) total += v;
      raw.push_back(total / static_cast<double>(f.size()));
    }

    // Normalise the scores between the pivot (the strongest miss score) and
    // the best-behaved large stride (the minimum, which dodges the
    // power-of-two aliasing that keeps strides at 2x/4x the line size
    // pivot-like).
    double pivot = 0.0;
    double best = 1.0;
    for (const double r : raw) {
      pivot = std::max(pivot, r);
      best = std::min(best, r);
    }
    out.scores.clear();
    if (pivot - best < 0.2) {
      return false;  // no contrast: inconclusive (e.g. wrong cache size)
    }
    std::vector<double> norm;
    norm.reserve(raw.size());
    for (double r : raw) {
      norm.push_back(std::clamp((r - best) / (pivot - best), 0.0, 1.0));
    }
    for (std::size_t i = 0; i < strides.size(); ++i) {
      out.scores.emplace_back(strides[i], norm[i]);
    }

    // The first stride whose score collapses sits between ~1.3x and 2x the
    // line size; snapping down to a power of two recovers the line size.
    // The confidence is the drop from the preceding (measured) stride's
    // score — for the very first stride there is no predecessor and the
    // pivot score 1.0 stands in.
    for (std::size_t i = 0; i < norm.size(); ++i) {
      if (norm[i] < 0.6) {
        out.found = true;
        out.line_bytes = static_cast<std::uint32_t>(floor_pow2(strides[i]));
        out.confidence =
            std::clamp((i > 0 ? norm[i - 1] : 1.0) - norm[i], 0.0, 1.0);
        break;
      }
    }
    return true;
  };

  // Adaptive two-point probe: two adjacent mid-window sizes (1.4x and 1.5x
  // the boundary the size sweep found). A stride's verdict flips between
  // two probe sizes only when its apparent capacity (stride/line * cache)
  // lands strictly between them — and with strides on a fg/2 grid and
  // power-of-two lines the possible capacity ratios are multiples of 1/8
  // (or coarser), none of which falls strictly inside (1.4, 1.5). So per
  // stride both points vote the same side of the miss-majority line: pivot
  // strides (at or below the line, and power-of-two aliases) miss at both,
  // collapsed strides fit at both, and the first collapsing stride lies in
  // [1.5, 2) lines — snapping down to the same power of two as the full
  // grid's cliff. Any residual split vote (associativity effects straddling
  // the majority line) means two points cannot score the stride: fall back
  // to the exhaustive grid.
  if (options.adaptive) {
    const std::vector<std::size_t> probe_idx = {3, 4};
    const auto measured = measure(probe_idx);
    const auto fractions = miss_fractions(measured, probe_idx.size());
    bool agree = true;
    for (const std::vector<double>& f : fractions) {
      if ((f[0] > 0.5) != (f[1] > 0.5)) {
        agree = false;
        break;
      }
    }
    if (agree && score(fractions)) {
      out.adaptive = true;
      return out;
    }
    out.adaptive_fallback = true;
  }

  std::vector<std::size_t> all_idx(array_sizes.size());
  for (std::size_t k = 0; k < all_idx.size(); ++k) all_idx[k] = k;
  const auto measured = measure(all_idx);
  score(miss_fractions(measured, all_idx.size()));
  return out;
}

}  // namespace mt4g::core
