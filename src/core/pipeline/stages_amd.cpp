// AMD stage table: the microbenchmark suite over the AMD CDNA memory
// elements (paper Table I, lower half) as declarative stages. AMD exposes
// much more through APIs — HSA for L2/L3 sizes and instance counts, KFD for
// their line sizes — so the table is shorter (paper Sec. V-A: ~15 vs ~35
// benchmarks on NVIDIA); the API-provenance attributes are seeded into the
// row skeletons at build time.
#include "common/units.hpp"
#include "core/benchmarks/bandwidth.hpp"
#include "core/benchmarks/sharing.hpp"
#include "core/pipeline/runner.hpp"
#include "core/pipeline/stages_common.hpp"
#include "runtime/device.hpp"

namespace mt4g::core::pipeline {
namespace {

using sim::Element;

FirstLevelPlan amd_l1_plan(Element element, const std::string& prefix) {
  FirstLevelPlan plan;
  plan.vendor = sim::Vendor::kAmd;
  plan.element = element;
  plan.prefix = prefix;
  plan.size_lower = 512;
  plan.size_upper = 1024 * KiB;
  plan.fg_fallback = 64;
  plan.report_upper_bound = false;  // AMD reports a plain "no change point"
  return plan;
}

}  // namespace

DiscoveryPlan amd_stages(sim::Gpu& gpu, const DiscoverOptions& options) {
  DiscoveryPlan plan;
  const runtime::DeviceProp prop = runtime::get_device_prop(gpu);
  const sim::GpuSpec& spec = gpu.spec();
  const auto hsa = runtime::hsa_cache_info(gpu);
  const auto kfd = runtime::kfd_cache_info(gpu);

  // --- Vector L1. ------------------------------------------------------------
  if (spec.has(Element::kVL1)) {
    add_row(plan, Element::kVL1);
    const FirstLevelPlan level = amd_l1_plan(Element::kVL1, "VL1");
    add_first_level_stages(plan.graph, level);
    add_amount_stage(plan.graph, level);
  }

  // --- Scalar L1 data cache + CU-id sharing. ----------------------------------
  if (spec.has(Element::kSL1D)) {
    MemoryElementReport& row = add_row(plan, Element::kSL1D);
    row.amount = Attribute::not_applicable();
    add_first_level_stages(plan.graph, amd_l1_plan(Element::kSL1D, "SL1D"));
    if (spec.cu_sharing_unavailable) {
      // A stage (not a build-time write) so the verdict is pruned away with
      // the element: a --only vl1 report must not carry SL1D conclusions.
      plan.graph.add(
          {"SL1D.cu_sharing", Element::kSL1D, {}, false,
           [](StageContext& ctx) {
             ctx.state.cu_sharing.available = false;
             ctx.state.cu_sharing.unavailable_reason =
                 "virtualised GPU access prevents CU-pinned execution";
             ctx.state.row(Element::kSL1D).shared_with = "unavailable";
           }});
    } else {
      plan.graph.add(
          {"SL1D.cu_sharing", Element::kSL1D, {"SL1D.fg", "SL1D.size"}, false,
           [](StageContext& ctx) {
             const ElementState& state = ctx.state.of(Element::kSL1D);
             if (state.size == 0) return;
             CuSharingBenchOptions options;
             options.sl1d_bytes = state.size;
             options.stride = state.fg;
             options.chase_pool = &ctx.chase_pool;
             const auto sharing = run_cu_sharing_benchmark(ctx.gpu, options);
             ctx.book(sharing.cycles);
             ctx.state.cu_sharing.available = true;
             ctx.state.cu_sharing.peers = sharing.peers;
             ctx.state.row(Element::kSL1D).shared_with = "CU id";
           }});
    }
  }

  // --- L2: size/line/amount from HSA + KFD, the rest benchmarked. -------------
  if (spec.has(Element::kL2)) {
    const Target target = target_for(sim::Vendor::kAmd, Element::kL2);
    MemoryElementReport& row = add_row(plan, Element::kL2);
    row.size = Attribute::from_api(
        static_cast<double>(hsa ? hsa->l2_size : prop.l2_cache_size));
    if (kfd && kfd->l2_line != 0) {
      row.cache_line = Attribute::from_api(kfd->l2_line);
    }
    // One L2 per XCD (paper IV-F1): the amount comes from the API.
    row.amount = Attribute::from_api(hsa ? hsa->l2_instances : 1);
    row.amount_per_gpu = true;

    plan.graph.add(
        {"L2.fg", Element::kL2, {}, false,
         [target](StageContext& ctx) {
           const auto fg =
               run_fg_benchmark(ctx.gpu, make_fg_options(ctx, target));
           ctx.book(fg.cycles);
           ctx.state.row(Element::kL2).fetch_granularity =
               fg.found ? Attribute::benchmarked(fg.granularity)
                        : Attribute::unavailable("no unimodal stride");
           ctx.state.of(Element::kL2).fg = fg.found ? fg.granularity : 64;
         }});
    plan.graph.add(
        {"L2.latency", Element::kL2, {"L2.fg"}, false,
         [target](StageContext& ctx) {
           const auto latency = run_latency_benchmark(
               ctx.gpu, make_latency_options(ctx, target,
                                             ctx.state.of(Element::kL2).fg,
                                             /*min_array_bytes=*/0,
                                             /*cache_bytes=*/0));
           ctx.book(latency.cycles);
           MemoryElementReport& l2_row = ctx.state.row(Element::kL2);
           l2_row.load_latency = Attribute::benchmarked(latency.headline);
           l2_row.latency_stats = latency.summary;
         }});
    add_bandwidth_stage(plan.graph, "L2", Element::kL2, /*bytes=*/0);
  }

  // --- L3 (CDNA3 Infinity Cache): size/line/amount via API; load latency and
  // fetch granularity are open gaps (paper Sec. III-C), bandwidth works. ------
  if (spec.has(Element::kL3)) {
    MemoryElementReport& row = add_row(plan, Element::kL3);
    row.size = Attribute::from_api(static_cast<double>(hsa ? hsa->l3_size : 0));
    if (kfd && kfd->l3_line != 0) {
      row.cache_line = Attribute::from_api(kfd->l3_line);
    }
    row.amount = Attribute::from_api(hsa ? hsa->l3_instances : 1);
    row.amount_per_gpu = true;
    row.load_latency =
        Attribute::unavailable("CDNA3 L3 benchmarking not yet supported");
    row.fetch_granularity =
        Attribute::unavailable("CDNA3 L3 benchmarking not yet supported");
    add_bandwidth_stage(plan.graph, "L3", Element::kL3, /*bytes=*/0);
  }

  // --- LDS. --------------------------------------------------------------------
  if (spec.has(Element::kLds)) {
    MemoryElementReport& row = add_row(plan, Element::kLds);
    row.size =
        Attribute::from_api(static_cast<double>(prop.shared_mem_per_block));
    add_scratchpad_stage(plan.graph, "LDS", Element::kLds);
  }

  // --- Device memory. ------------------------------------------------------------
  if (spec.has(Element::kDeviceMem)) {
    MemoryElementReport& row = add_row(plan, Element::kDeviceMem);
    row.size = Attribute::from_api(static_cast<double>(prop.total_global_mem));
    // Step past the largest fill granularity in the chain (the CDNA3 L3
    // fills 128 B sectors on 256 B lines) so every cold load reaches DRAM.
    add_device_latency_stage(plan.graph, sim::Vendor::kAmd,
                             /*fetch_granularity=*/256);
    add_bandwidth_stage(plan.graph, "DMEM", Element::kDeviceMem, 1 * GiB);
  }

  if (options.measure_compute) add_compute_stage(plan.graph);
  validate(plan.graph);
  return plan;
}

}  // namespace mt4g::core::pipeline
