#include "harness.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <fstream>
#include <thread>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "stats/descriptive.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return mt4g::stats::percentile(values, 50.0);
}

std::string format_number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + mt4g::json::escape(metric.name) + "\": {\"value\": " +
           format_number(metric.value) + ", \"unit\": \"" +
           mt4g::json::escape(metric.unit) + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::uint64_t heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::uint64_t>(info.uordblks) +
         static_cast<std::uint64_t>(info.hblkhd);
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return mt4g::trim(line.substr(colon + 1));
    }
  }
  return "unknown";
}

/// Keeps the burn results observable so the work cannot be dropped.
volatile std::uint64_t g_burn_sink = 0;

/// A fixed amount of integer work that stays in registers (splitmix64).
std::uint64_t burn(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (int i = 0; i < 10'000'000; ++i) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    x ^= z ^ (z >> 31);
  }
  return x;
}

/// Wall seconds for @p threads threads to finish one burn() each.
double burn_wall(unsigned threads) {
  std::vector<std::uint64_t> sinks(threads, 0);
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sinks, t] { sinks[t] = burn(t + 1); });
  }
  for (auto& thread : pool) thread.join();
  const double wall = seconds_since(start);
  for (const std::uint64_t s : sinks) g_burn_sink = g_burn_sink ^ s;
  return wall;
}

}  // namespace

HostInfo probe_host(const std::string& source_id) {
  HostInfo host;
  host.cpu_model = cpu_model();
  host.nproc = usable_cpus();
  host.hardware_concurrency = std::max(1u, std::thread::hardware_concurrency());
  host.source_id = source_id;
  std::vector<double> single;
  std::vector<double> parallel;
  for (int rep = 0; rep < 3; ++rep) {
    single.push_back(burn_wall(1));
    parallel.push_back(burn_wall(host.nproc));
  }
  host.parallelism =
      static_cast<double>(host.nproc) * median(single) / median(parallel);
  return host;
}

std::string host_line(const HostInfo& host) {
  mt4g::json::Object fields;
  fields.emplace_back("cpu_model", host.cpu_model);
  fields.emplace_back("nproc", host.nproc);
  fields.emplace_back("hardware_concurrency", host.hardware_concurrency);
  fields.emplace_back("parallelism", host.parallelism);
  fields.emplace_back("source", host.source_id);
  mt4g::json::Object root;
  root.emplace_back("host", mt4g::json::Value(std::move(fields)));
  return mt4g::json::Value(std::move(root)).dump(-1);
}

}  // namespace perfbench
