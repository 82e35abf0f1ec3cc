// Measurement-noise model.
//
// Real p-chase latencies are never exact: the clock readout quantises, warp
// scheduling adds jitter, and rare TLB/ECC/refresh events produce large
// outliers. MT4G's statistical machinery (K-S test, reduction, outlier
// screening) exists precisely to survive this, so the substrate must inject
// it. The model is deliberately simple and fully seeded:
//   latency = base + U{0..jitter_max} + spike (probability p, size U{lo..hi})
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"

namespace mt4g::sim {

struct NoiseParams {
  std::uint32_t jitter_max = 2;      ///< uniform additive jitter in cycles
  double spike_probability = 5e-4;   ///< per-load chance of an outlier
  std::uint32_t spike_min = 100;     ///< outlier magnitude range (cycles)
  std::uint32_t spike_max = 400;
};

/// Applies noise to a base latency. Deterministic given the RNG state.
///
/// sample() sits on the simulator hot path (one call per recorded load), so
/// it is inline and burns exactly one RNG draw per load in the common case:
/// the jitter comes from the draw's high bits via a multiply-shift range
/// reduction and the spike decision from its low 32 bits, avoiding the
/// second draw and the 64-bit modulo of the naive formulation. Only actual
/// spikes (probability ~5e-4) cost a second draw for the magnitude.
class NoiseModel {
 public:
  NoiseModel(const NoiseParams& params, Xoshiro256 rng)
      : params_(params),
        rng_(rng),
        jitter_span_(params.jitter_max + 1),
        // Clamped to [0, 1] before scaling: a probability of 1.0 must map to
        // 2^32 (always spikes), and out-of-range values must not overflow
        // the cast.
        spike_threshold_(static_cast<std::uint64_t>(
            std::clamp(params.spike_probability, 0.0, 1.0) * 4294967296.0)),
        mix_state_(rng_()) {}

  /// sample() for a base latency already rounded to whole cycles; the hot
  /// passes precompute the rounding once per compiled path, keeping the
  /// per-load work integer-only. The per-load draw is a splitmix64 step —
  /// 8 bytes of state against xoshiro's 32 — seeded from the xoshiro stream;
  /// rare spike magnitudes still come from the xoshiro generator.
  std::uint32_t sample_rounded(std::uint32_t base_cycles) {
    return base_cycles + draw();
  }

  /// The noise @p count loads add to their base latencies on average,
  /// rounded half up to whole cycles: count times draw()'s exact mean, which
  /// is jitter_max / 2 plus the rate draw() spikes at (spike_threshold_ /
  /// 2^32) times the mean spike magnitude. A timed pass charges its
  /// unrecorded loads here, once. It draws nothing, so the loads a pass
  /// records read the same stream however many it leaves unrecorded.
  std::uint64_t mean_noise(std::uint64_t count) const {
    const double spike_rate =
        static_cast<double>(spike_threshold_) * 0x1.0p-32;
    const double per_load =
        static_cast<double>(params_.jitter_max) / 2.0 +
        spike_rate *
            (static_cast<double>(params_.spike_min) + params_.spike_max) /
            2.0;
    return static_cast<std::uint64_t>(static_cast<double>(count) * per_load +
                                      0.5);
  }

  std::uint32_t sample(double base_cycles) {
    // Truncating base + 0.5 rounds half up — identical to llround for the
    // non-negative latencies the specs hold — without the libcall.
    return sample_rounded(static_cast<std::uint32_t>(base_cycles + 0.5));
  }

  /// Multiplicative noise for bandwidth measurements, ~ U[1-r, 1+r].
  double bandwidth_factor(double relative_range = 0.02);

  /// The parameters this model was built with; lets Gpu::fork() build
  /// replicas with identical noise characteristics on a fresh stream.
  const NoiseParams& params() const { return params_; }

 private:
  /// One load's noise: jitter, plus a spike when one fires.
  std::uint32_t draw() {
    const std::uint64_t bits = splitmix64(mix_state_);
    auto noise = static_cast<std::uint32_t>(
        ((bits >> 32) * jitter_span_) >> 32);
    if ((bits & 0xFFFFFFFFULL) < spike_threshold_) {
      noise += static_cast<std::uint32_t>(
          rng_.uniform_int(params_.spike_min, params_.spike_max));
    }
    return noise;
  }

  NoiseParams params_;
  Xoshiro256 rng_;
  std::uint64_t jitter_span_;       ///< jitter_max + 1
  std::uint64_t spike_threshold_;   ///< clamped spike_probability * 2^32
  std::uint64_t mix_state_;         ///< splitmix64 state for per-load draws
};

}  // namespace mt4g::sim
