// Regenerates paper Sec. V-A: run times and benchmark counts per GPU.
//
// The paper reports 6-14 min total on NVIDIA vs ~1 min on AMD (35 vs 15
// benchmarks; the L2 benchmarks dominate because they repeatedly fill the
// large L2 and beyond), and that an L1-only run cuts an A100 analysis from
// over 12 min to about 1 min. The shape to verify here: NVIDIA runs many
// more benchmarks, every NVIDIA GPU costs more simulated GPU time than any
// AMD GPU, the L2-heavy GPUs dominate, and --only L1 collapses the cost.
#include <chrono>
#include <cstdio>

#include "common/table.hpp"
#include "core/mt4g.hpp"
#include "sim/gpu.hpp"

int main() {
  using namespace mt4g;
  using clock = std::chrono::steady_clock;
  std::puts("=== Paper Sec. V-A: benchmark counts and run times ===\n");

  TablePrinter table({"GPU", "Vendor", "#Benchmarks", "Simulated GPU time",
                      "Host wall time"});
  for (const auto& name : sim::registry_names()) {
    const auto& spec = sim::registry_get(name);
    sim::Gpu gpu(spec, 42);
    const auto start = clock::now();
    const auto report = core::discover(gpu);
    const double wall =
        std::chrono::duration<double>(clock::now() - start).count();
    char simulated[64];
    std::snprintf(simulated, sizeof(simulated), "%8.1f s",
                  report.simulated_seconds);
    char host[64];
    std::snprintf(host, sizeof(host), "%6.1f s", wall);
    table.add_row({name, sim::vendor_name(spec.vendor),
                   std::to_string(report.benchmarks_executed), simulated,
                   host});
  }
  std::fputs(table.str().c_str(), stdout);

  std::puts("\n--- scope reduction (paper: A100 L1-only run ~1 min vs >12) ---");
  {
    sim::Gpu gpu(sim::registry_get("A100"), 42);
    const auto full = core::discover(gpu);
    sim::Gpu gpu_l1(sim::registry_get("A100"), 42);
    core::DiscoverOptions options;
    options.only = {sim::Element::kL1};
    const auto l1_only = core::discover(gpu_l1, options);
    std::printf("A100 full run : %2u benchmarks, %.2f s simulated\n",
                full.benchmarks_executed, full.simulated_seconds);
    std::printf("A100 L1-only  : %2u benchmarks, %.2f s simulated (%.0fx less)\n",
                l1_only.benchmarks_executed, l1_only.simulated_seconds,
                full.simulated_seconds / l1_only.simulated_seconds);
  }
  return 0;
}
