// NVIDIA stage table: the full microbenchmark suite over the NVIDIA memory
// elements (paper Table I, upper half) as declarative stages.
#include <algorithm>

#include "common/units.hpp"
#include "core/benchmarks/bandwidth.hpp"
#include "core/benchmarks/sharing.hpp"
#include "core/pipeline/runner.hpp"
#include "core/pipeline/stages_common.hpp"
#include "runtime/device.hpp"

namespace mt4g::core::pipeline {
namespace {

using sim::Element;

/// NVIDIA's constant arrays are capped at 64 KiB (paper Sec. III-C / [38]).
constexpr std::uint64_t kConstantArrayLimit = 64 * KiB;

std::string short_name(Element element) {
  switch (element) {
    case Element::kL1: return "L1";
    case Element::kTexture: return "TEX";
    case Element::kReadOnly: return "RO";
    case Element::kConstL1: return "CO";
    default: return sim::element_name(element);
  }
}

/// Creates the blackboard entry + row skeleton of one element.
MemoryElementReport& add_row(DiscoveryPlan& plan, Element element) {
  plan.state.element[element];
  plan.graph.row_order.push_back(element);
  MemoryElementReport& row = plan.state.rows[element];
  row.element = element;
  return row;
}

/// The Constant L1.5 stage chain (between Constant L1 and L2): custom
/// wiring because every benchmark feeds on the Const L1 results to thrash
/// the level above the benchmarked cache.
void add_const_l15_stages(DiscoveryPlan& plan, bool has_const_l1) {
  const Target target = target_for(sim::Vendor::kNvidia, Element::kConstL15);
  std::vector<std::string> cl1_deps;
  if (has_const_l1) cl1_deps = {"CO.fg", "CO.size"};

  auto cl1_state = [](StageContext& ctx) {
    ElementState state = ctx.state.get(Element::kConstL1);
    if (state.size == 0) state.size = 2 * KiB;
    if (state.fg == 0) state.fg = 64;
    return state;
  };

  plan.graph.add(
      {"CL15.fg", Element::kConstL15, StageKind::kFetchGranularity, cl1_deps,
       false, [target, cl1_state](StageContext& ctx) {
         const ElementState cl1 = cl1_state(ctx);
         FgBenchOptions options = make_fg_options(ctx, target);
         // Stay beyond the Const L1 capacity so its hits don't mask the
         // pattern.
         options.min_array_bytes = 2 * cl1.size;
         const auto fg = run_fg_benchmark(ctx.gpu, options);
         ctx.book(fg.cycles);
         ctx.state.row(Element::kConstL15).fetch_granularity =
             fg.found ? Attribute::benchmarked(fg.granularity)
                      : Attribute::unavailable("no unimodal stride");
         ctx.state.of(Element::kConstL15).fg =
             fg.found ? fg.granularity : cl1.fg;
       }});

  std::vector<std::string> size_deps = {"CL15.fg"};
  size_deps.insert(size_deps.end(), cl1_deps.begin(), cl1_deps.end());
  plan.graph.add(
      {"CL15.size", Element::kConstL15, StageKind::kSize, size_deps, false,
       [target, cl1_state](StageContext& ctx) {
         const ElementState cl1 = cl1_state(ctx);
         const auto size = run_size_stage(
             ctx, Element::kConstL15,
             make_size_options(
                 ctx, target,
                 std::max<std::uint64_t>(2 * cl1.size, 4 * KiB),
                 kConstantArrayLimit,  // the hard 64 KiB wall
                 ctx.state.of(Element::kConstL15).fg));
         MemoryElementReport& row = ctx.state.row(Element::kConstL15);
         if (size.found) {
           row.size = Attribute::benchmarked(
               static_cast<double>(size.exact_bytes), size.confidence);
           ctx.state.of(Element::kConstL15).size = size.exact_bytes;
         } else {
           // The array limit truncates the search: report the bound,
           // confidence 0 (paper Table III: ">64KiB").
           row.size = Attribute{Provenance::kBenchmark,
                                static_cast<double>(kConstantArrayLimit), 0.0,
                                ">" + format_bytes(kConstantArrayLimit)};
         }
       }});

  std::vector<std::string> latency_deps = {"CL15.fg", "CL15.size"};
  latency_deps.insert(latency_deps.end(), cl1_deps.begin(), cl1_deps.end());
  plan.graph.add(
      {"CL15.latency", Element::kConstL15, StageKind::kLatency, latency_deps,
       false, [target, cl1_state](StageContext& ctx) {
         const ElementState cl1 = cl1_state(ctx);
         const ElementState& cl15 = ctx.state.of(Element::kConstL15);
         const auto latency = run_latency_benchmark(
             ctx.gpu, make_latency_options(ctx, target, cl15.fg,
                                           /*min_array_bytes=*/4 * cl1.size,
                                           cl15.size));
         ctx.book(latency.cycles);
         MemoryElementReport& row = ctx.state.row(Element::kConstL15);
         row.load_latency = Attribute::benchmarked(latency.headline);
         row.latency_stats = latency.summary;
       }});

  plan.graph.add(
      {"CL15.line", Element::kConstL15, StageKind::kLineSize,
       {"CL15.fg", "CL15.size"}, false, [target](StageContext& ctx) {
         const ElementState& cl15 = ctx.state.of(Element::kConstL15);
         MemoryElementReport& row = ctx.state.row(Element::kConstL15);
         if (cl15.size == 0) {
           // Line size takes the cache size as input (paper Sec. V).
           row.cache_line =
               Attribute::unavailable("cache size not determined");
           return;
         }
         const auto line = run_line_size_benchmark(
             ctx.gpu, make_line_options(ctx, target, cl15.size, cl15.fg));
         ctx.book(line.cycles);
         row.cache_line = line_size_attribute(line);
       }});
}

/// The L2 complex: fg, latency, segment count (the size benchmark variant),
/// line size over one segment, and the stream-kernel bandwidth.
void add_l2_stages(DiscoveryPlan& plan, const runtime::DeviceProp& prop) {
  const Target target = target_for(sim::Vendor::kNvidia, Element::kL2);

  plan.graph.add(
      {"L2.fg", Element::kL2, StageKind::kFetchGranularity, {}, false,
       [target](StageContext& ctx) {
         const auto fg = run_fg_benchmark(ctx.gpu, make_fg_options(ctx, target));
         ctx.book(fg.cycles);
         ctx.state.row(Element::kL2).fetch_granularity =
             fg.found ? Attribute::benchmarked(fg.granularity)
                      : Attribute::unavailable("no unimodal stride");
         ctx.state.of(Element::kL2).fg = fg.found ? fg.granularity : 32;
       }});

  plan.graph.add(
      {"L2.latency", Element::kL2, StageKind::kLatency, {"L2.fg"}, false,
       [target](StageContext& ctx) {
         const auto latency = run_latency_benchmark(
             ctx.gpu, make_latency_options(ctx, target,
                                           ctx.state.of(Element::kL2).fg,
                                           /*min_array_bytes=*/0,
                                           /*cache_bytes=*/0));
         ctx.book(latency.cycles);
         MemoryElementReport& row = ctx.state.row(Element::kL2);
         row.load_latency = Attribute::benchmarked(latency.headline);
         row.latency_stats = latency.summary;
       }});

  // Segment count: size benchmark + alignment to an integer fraction of the
  // API total (paper IV-F1); publishes the per-segment capacity for the
  // line-size stage.
  const std::uint64_t api_total = prop.l2_cache_size;
  plan.graph.add(
      {"L2.segment", Element::kL2, StageKind::kSize, {"L2.fg"}, false,
       [api_total](StageContext& ctx) {
         const auto segment = run_l2_segment_benchmark(
             ctx.gpu, api_total, ctx.state.of(Element::kL2).fg, {},
             ctx.options.sweep_threads, &ctx.chase_pool);
         ctx.book(segment.cycles);
         ctx.booking.sweep_widenings += segment.widenings;
         MemoryElementReport& row = ctx.state.row(Element::kL2);
         if (segment.found) {
           row.amount =
               Attribute::benchmarked(segment.segments, segment.confidence);
           row.amount_per_gpu = true;
           ctx.state.l2_segment_bytes = segment.segment_bytes;
         } else {
           row.amount = Attribute::unavailable("segment size not detected");
         }
       }});

  plan.graph.add(
      {"L2.line", Element::kL2, StageKind::kLineSize, {"L2.fg", "L2.segment"},
       false, [target](StageContext& ctx) {
         const auto line = run_line_size_benchmark(
             ctx.gpu, make_line_options(ctx, target,
                                        ctx.state.l2_segment_bytes,
                                        ctx.state.of(Element::kL2).fg));
         ctx.book(line.cycles);
         ctx.state.row(Element::kL2).cache_line = line_size_attribute(line);
       }});

  add_bandwidth_stage(plan.graph, "L2", Element::kL2, /*bytes=*/0);
}

}  // namespace

DiscoveryPlan nvidia_stages(sim::Gpu& gpu, const DiscoverOptions& options) {
  DiscoveryPlan plan;
  const runtime::DeviceProp prop = runtime::get_device_prop(gpu);
  const sim::GpuSpec& spec = gpu.spec();

  // --- First-level caches: L1, Texture, ReadOnly, Constant L1. -------------
  const Element first_level[] = {Element::kL1, Element::kTexture,
                                 Element::kReadOnly, Element::kConstL1};
  std::vector<std::string> sharing_deps;
  for (const Element element : first_level) {
    if (!spec.has(element)) continue;
    MemoryElementReport& row = add_row(plan, element);
    FirstLevelPlan level;
    level.vendor = sim::Vendor::kNvidia;
    level.element = element;
    level.prefix = short_name(element);
    level.size_lower = 1 * KiB;
    level.size_upper =
        element == Element::kConstL1 ? kConstantArrayLimit : 1024 * KiB;
    add_first_level_stages(plan.graph, level);
    sharing_deps.push_back(stage_name(level.prefix, StageKind::kSize));
    if (element == Element::kL1 && spec.l1_amount_unavailable) {
      row.amount =
          Attribute::unavailable("unable to schedule a thread on warp 3");
    } else {
      add_amount_stage(plan.graph, level);
    }
  }

  // --- Constant L1.5 (between Constant L1 and L2). -------------------------
  if (spec.has(Element::kConstL15)) {
    MemoryElementReport& row = add_row(plan, Element::kConstL15);
    // The 64 KiB constant limit blocks the amount benchmark (Table I: #).
    row.amount = Attribute::unavailable("64 KiB constant array limitation");
    add_const_l15_stages(plan, spec.has(Element::kConstL1));
  }

  // --- L2 cache. ------------------------------------------------------------
  if (spec.has(Element::kL2)) {
    MemoryElementReport& row = add_row(plan, Element::kL2);
    row.size = Attribute::from_api(static_cast<double>(prop.l2_cache_size));
    plan.state.l2_segment_bytes = prop.l2_cache_size;
    add_l2_stages(plan, prop);
  }

  // --- Shared Memory. --------------------------------------------------------
  if (spec.has(Element::kSharedMem)) {
    MemoryElementReport& row = add_row(plan, Element::kSharedMem);
    row.size =
        Attribute::from_api(static_cast<double>(prop.shared_mem_per_block));
    add_scratchpad_stage(plan.graph, "SHARED", Element::kSharedMem);
  }

  // --- Device memory. ---------------------------------------------------------
  if (spec.has(Element::kDeviceMem)) {
    MemoryElementReport& row = add_row(plan, Element::kDeviceMem);
    row.size = Attribute::from_api(static_cast<double>(prop.total_global_mem));
    add_device_latency_stage(plan.graph, sim::Vendor::kNvidia,
                             /*fetch_granularity=*/32);
    add_bandwidth_stage(plan.graph, "DMEM", Element::kDeviceMem, 1 * GiB);
  }

  // --- Physical sharing across logical spaces (paper IV-G). -----------------
  // Full runs only: the pairwise protocol needs every first-level size.
  if (sharing_deps.size() >= 2) {
    plan.graph.add(
        {"sharing.pairs", Element::kL1, StageKind::kSharing, sharing_deps,
         /*full_run_only=*/true, [first_level](StageContext& ctx) {
           SharingBenchOptions options;
           for (const Element element : first_level) {
             if (!ctx.gpu.spec().has(element)) continue;
             const ElementState state = ctx.state.get(element);
             if (state.size == 0) continue;
             options.entries.push_back(
                 {element, state.size, state.fg,
                  element == Element::kConstL1 ? kConstantArrayLimit : 0});
           }
           options.threads = ctx.options.sweep_threads;
           options.chase_pool = &ctx.chase_pool;
           if (options.entries.size() < 2) return;
           const auto sharing = run_sharing_benchmark(ctx.gpu, options);
           // Each tested pair is one benchmark execution.
           for (std::size_t i = 1; i < sharing.pairs.size(); ++i) ctx.book(0);
           ctx.book(sharing.cycles);
           for (const auto& entry : options.entries) {
             MemoryElementReport& row = ctx.state.row(entry.element);
             const auto group = sharing.group_of(entry.element);
             if (group.empty()) {
               row.shared_with = "no";
             } else {
               std::string joined = short_name(entry.element);
               for (const Element peer : group) {
                 joined += "," + short_name(peer);
               }
               row.shared_with = joined;
             }
           }
         }});
  }

  if (options.measure_compute) add_compute_stage(plan.graph);
  validate(plan.graph);
  return plan;
}

}  // namespace mt4g::core::pipeline
