#include "core/pipeline/stages_common.hpp"

#include "common/units.hpp"
#include "core/benchmarks/bandwidth.hpp"
#include "core/benchmarks/compute.hpp"

namespace mt4g::core::pipeline {

MemoryElementReport& add_row(DiscoveryPlan& plan, sim::Element element) {
  plan.state.element[element];
  plan.graph.row_order.push_back(element);
  MemoryElementReport& row = plan.state.rows[element];
  row.element = element;
  return row;
}

FgBenchOptions make_fg_options(StageContext& ctx, const Target& target) {
  FgBenchOptions options;
  options.target = target;
  options.chase_pool = &ctx.chase_pool;
  return options;
}

SizeBenchOptions make_size_options(StageContext& ctx, const Target& target,
                                   std::uint64_t lower, std::uint64_t upper,
                                   std::uint32_t stride) {
  SizeBenchOptions options;
  options.target = target;
  options.lower = lower;
  options.upper = upper;
  options.stride = stride;
  options.chase_pool = &ctx.chase_pool;
  return options;
}

LatencyBenchOptions make_latency_options(StageContext& ctx,
                                         const Target& target,
                                         std::uint32_t fetch_granularity,
                                         std::uint64_t min_array_bytes,
                                         std::uint64_t cache_bytes) {
  LatencyBenchOptions options;
  options.target = target;
  options.fetch_granularity = fetch_granularity;
  options.min_array_bytes = min_array_bytes;
  options.cache_bytes = cache_bytes;
  options.chase_pool = &ctx.chase_pool;
  return options;
}

LineSizeBenchOptions make_line_options(StageContext& ctx, const Target& target,
                                       std::uint64_t cache_bytes,
                                       std::uint32_t fetch_granularity) {
  LineSizeBenchOptions options;
  options.target = target;
  options.cache_bytes = cache_bytes;
  options.fetch_granularity = fetch_granularity;
  options.chase_pool = &ctx.chase_pool;
  return options;
}

AmountBenchOptions make_amount_options(StageContext& ctx, const Target& target,
                                       std::uint64_t cache_bytes,
                                       std::uint32_t stride) {
  AmountBenchOptions options;
  options.target = target;
  options.cache_bytes = cache_bytes;
  options.stride = stride;
  options.chase_pool = &ctx.chase_pool;
  return options;
}

Attribute line_size_attribute(const LineSizeBenchResult& line) {
  return line.found
             ? Attribute::benchmarked(line.line_bytes, line.confidence)
             : Attribute::unavailable("inconclusive");
}

SizeBenchResult run_size_stage(StageContext& ctx, sim::Element element,
                               const SizeBenchOptions& options) {
  const SizeBenchResult size = run_size_benchmark(ctx.gpu, options);
  ctx.book(size.cycles);
  ctx.booking.sweep_widenings += size.widenings;
  if (ctx.options.collect_series && !size.sweep_sizes.empty()) {
    ctx.series.push_back(
        SizeSeries{element, size.sweep_sizes, size.reduced, size.exact_bytes});
  }
  return size;
}

void add_first_level_stages(StageGraph& graph, const FirstLevelPlan& plan) {
  const sim::Element element = plan.element;
  const std::string fg_stage = plan.prefix + ".fg";
  const std::string size_stage = plan.prefix + ".size";

  // Fetch granularity first: it is the step size of everything that follows.
  graph.add({fg_stage, element, {}, false,
             [plan](StageContext& ctx) {
               const Target target = target_for(plan.vendor, plan.element);
               const auto fg =
                   run_fg_benchmark(ctx.gpu, make_fg_options(ctx, target));
               ctx.book(fg.cycles);
               ctx.state.row(plan.element).fetch_granularity =
                   fg.found ? Attribute::benchmarked(fg.granularity)
                            : Attribute::unavailable("no unimodal stride");
               ctx.state.of(plan.element).fg =
                   fg.found ? fg.granularity : plan.fg_fallback;
             }});

  // Size via the K-S workflow.
  graph.add({size_stage, element, {fg_stage}, false,
             [plan](StageContext& ctx) {
               const Target target = target_for(plan.vendor, plan.element);
               const auto size = run_size_stage(
                   ctx, plan.element,
                   make_size_options(ctx, target, plan.size_lower,
                                     plan.size_upper,
                                     ctx.state.of(plan.element).fg));
               MemoryElementReport& row = ctx.state.row(plan.element);
               if (size.found) {
                 row.size = Attribute::benchmarked(
                     static_cast<double>(size.exact_bytes), size.confidence);
                 ctx.state.of(plan.element).size = size.exact_bytes;
               } else if (plan.report_upper_bound && size.upper_bound_hit) {
                 row.size = Attribute::unavailable(
                     ">" + format_bytes(plan.size_upper));
               } else {
                 row.size = Attribute::unavailable("no change point");
               }
             }});

  // Load latency (within the detected capacity so the timed pass hits).
  graph.add({plan.prefix + ".latency", element, {fg_stage, size_stage}, false,
             [plan](StageContext& ctx) {
               const Target target = target_for(plan.vendor, plan.element);
               const ElementState& state = ctx.state.of(plan.element);
               const auto latency = run_latency_benchmark(
                   ctx.gpu,
                   make_latency_options(ctx, target, state.fg,
                                        plan.latency_min_array, state.size));
               ctx.book(latency.cycles);
               MemoryElementReport& row = ctx.state.row(plan.element);
               row.load_latency = Attribute::benchmarked(latency.headline);
               row.latency_stats = latency.summary;
             }});

  // Cache line size (requires the detected size).
  graph.add({plan.prefix + ".line", element, {fg_stage, size_stage}, false,
             [plan](StageContext& ctx) {
               const ElementState& state = ctx.state.of(plan.element);
               MemoryElementReport& row = ctx.state.row(plan.element);
               if (state.size == 0) {
                 row.cache_line = Attribute::unavailable("cache size unknown");
                 return;
               }
               const Target target = target_for(plan.vendor, plan.element);
               const auto line = run_line_size_benchmark(
                   ctx.gpu,
                   make_line_options(ctx, target, state.size, state.fg));
               ctx.book(line.cycles);
               row.cache_line = line_size_attribute(line);
             }});
}

void add_amount_stage(StageGraph& graph, const FirstLevelPlan& plan) {
  graph.add({plan.prefix + ".amount", plan.element, {plan.prefix + ".size"},
             false,
             [plan](StageContext& ctx) {
               const ElementState& state = ctx.state.of(plan.element);
               MemoryElementReport& row = ctx.state.row(plan.element);
               if (state.size == 0) {
                 row.amount = Attribute::unavailable("cache size unknown");
                 return;
               }
               const Target target = target_for(plan.vendor, plan.element);
               const auto amount = run_amount_benchmark(
                   ctx.gpu,
                   make_amount_options(ctx, target, state.size, state.fg));
               ctx.book(amount.cycles);
               row.amount = amount.available
                                ? Attribute::benchmarked(amount.amount)
                                : Attribute::unavailable(
                                      "cache smaller than one stride");
             }});
}

void add_bandwidth_stage(StageGraph& graph, const std::string& prefix,
                         sim::Element element, std::uint64_t bytes) {
  graph.add({prefix + ".bandwidth", element, {}, false,
             [element, bytes](StageContext& ctx) {
               BandwidthBenchOptions options;
               options.target = element;
               options.bytes = bytes;
               const auto bw = run_bandwidth_benchmark(ctx.gpu, options);
               // Read and write are two benchmarks sharing one launch.
               ctx.book_kernel_seconds(bw.seconds / 2);
               ctx.book_kernel_seconds(bw.seconds / 2);
               MemoryElementReport& row = ctx.state.row(element);
               row.read_bandwidth =
                   Attribute::benchmarked(bw.read_bytes_per_s);
               row.write_bandwidth =
                   Attribute::benchmarked(bw.write_bytes_per_s);
             }});
}

void add_scratchpad_stage(StageGraph& graph, const std::string& prefix,
                          sim::Element element) {
  graph.add({prefix + ".latency", element, {}, false,
             [element](StageContext& ctx) {
               // Scratchpads need no targeting machinery: one chase on the
               // stage substrate (deterministic noise stream per stage).
               const auto latency = run_scratchpad_latency(ctx.gpu);
               ctx.book(latency.cycles);
               MemoryElementReport& row = ctx.state.row(element);
               row.load_latency = Attribute::benchmarked(latency.headline);
               row.latency_stats = latency.summary;
             }});
}

void add_device_latency_stage(StageGraph& graph, sim::Vendor vendor,
                              std::uint32_t fetch_granularity) {
  graph.add({"DMEM.latency", sim::Element::kDeviceMem, {}, false,
             [vendor, fetch_granularity](StageContext& ctx) {
               const Target target =
                   target_for(vendor, sim::Element::kDeviceMem);
               LatencyBenchOptions options = make_latency_options(
                   ctx, target, fetch_granularity, /*min_array_bytes=*/0,
                   /*cache_bytes=*/0);
               options.cold = true;  // every load must fall through to DRAM
               const auto latency = run_latency_benchmark(ctx.gpu, options);
               ctx.book(latency.cycles);
               MemoryElementReport& row =
                   ctx.state.row(sim::Element::kDeviceMem);
               row.load_latency = Attribute::benchmarked(latency.headline);
               row.latency_stats = latency.summary;
             }});
}

void add_compute_stage(StageGraph& graph) {
  graph.add({"compute.suite", sim::Element::kDeviceMem, {},
             /*full_run_only=*/true, [](StageContext& ctx) {
               for (const auto& result : run_compute_suite(ctx.gpu)) {
                 // Each FMA-stream kernel is a short launch.
                 ctx.book_kernel_seconds(0.01);
                 ctx.compute_throughput.push_back(
                     {sim::dtype_name(result.dtype), result.achieved_ops_per_s,
                      result.best_blocks, result.threads_per_block});
               }
             }});
}

}  // namespace mt4g::core::pipeline
