// Host-side metrics registry: counters, gauges and histogram summaries.
//
// The registry is the wall-clock counterpart of the simulated-cycle
// telemetry in TopologyReport: it aggregates host observations —
// `exec.queue_wait_ns`, `exec.worker_busy_fraction`, `pipeline.stage_wall_ns`,
// `sim.warm_loads`/`sim.timed_loads`, `replica.fork_ns`/`replica.reset_ns`,
// `fleet.jobs_done`/`fleet.cache_hits` — per discovery (embedded into the
// report's `meta.wall` block when enabled) and per fleet run (dumped as
// Prometheus text via `mt4g_cli --metrics <file>`, the groundwork for the
// planned `serve` mode's request metrics).
//
// Like the tracer (trace.hpp), the registry is strictly out of band and
// opt-in: disabled (the default), every instrumentation site costs one
// relaxed atomic load and performs no allocation; reports stay
// byte-identical whether metrics are collected or not — the wall block is
// only populated when the registry was enabled for the run.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mt4g::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

std::string metric_kind_name(MetricKind kind);

/// One metric at snapshot time. Counters/gauges use `value`; histograms
/// carry the observation count plus sum/min/max in value/min/max.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;       ///< counter total, gauge value, histogram sum
  std::uint64_t count = 0;  ///< histogram observations (0 otherwise)
  double min = 0.0;         ///< histogram minimum (valid when count > 0)
  double max = 0.0;         ///< histogram maximum (valid when count > 0)
};

/// True while the registry collects. One relaxed atomic load — the whole
/// cost of every instrumentation site in the disabled state.
bool metrics_enabled();

/// The process-wide registry. Thread-safe; names are created on first use.
class Metrics {
 public:
  static Metrics& instance();

  void enable();
  void disable();
  /// Drops every metric (typically paired with enable() at run start).
  void reset();

  /// Counter increment. No-op while disabled.
  void add(std::string_view name, double delta = 1.0);
  /// Gauge assignment (last write wins). No-op while disabled.
  void set(std::string_view name, double value);
  /// Histogram observation (count/sum/min/max summary). No-op while disabled.
  void observe(std::string_view name, double value);

  /// All metrics, sorted by name.
  std::vector<MetricSample> snapshot() const;

  /// Prometheus text exposition: names sanitised to [a-zA-Z0-9_] with an
  /// `mt4g_` prefix; histograms exported as summary `_count`/`_sum` (plus
  /// `_min`/`_max` gauges).
  std::string prometheus_text() const;

  /// Per-interval view between two snapshots: counter and histogram values
  /// are subtracted (absent-in-before = from zero), gauges keep the `after`
  /// value. Used to attribute the global registry to one discovery.
  static std::vector<MetricSample> delta(
      const std::vector<MetricSample>& before,
      const std::vector<MetricSample>& after);

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    double value = 0.0;
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
  };

  Metrics() = default;

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace mt4g::obs
