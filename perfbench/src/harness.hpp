// Shared plumbing of the perfbench binary: clocks and medians, the named
// metrics behind the result line, process memory readings and the host
// description every result carries.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of an unsorted sample; 0 for an empty one.
double median(std::vector<double> values);

/// One named measurement of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest decimal text that reads back as exactly @p value.
std::string format_number(double value);

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// Peak resident set of this process plus that of its largest reaped child
/// (the supervised fleet workers), in MiB.
double peak_rss_mib();

/// Bytes currently allocated on the C++ heap (glibc mallinfo2).
std::uint64_t heap_bytes();

/// CPUs this process may run on (what `nproc` prints).
unsigned usable_cpus();

struct HostInfo {
  std::string cpu_model;
  unsigned nproc = 1;
  unsigned hardware_concurrency = 1;
  /// Speedup a fixed CPU-burn task gets from nproc threads over one thread.
  double parallelism = 1.0;
  std::string source_id;  ///< git sha or source digest of the build
};

HostInfo probe_host(const std::string& source_id);

/// One-line JSON object {"host": {...}} printed before every result line.
std::string host_line(const HostInfo& host);

}  // namespace perfbench
