// Observability-layer tests: the zero-cost disabled path, Chrome trace
// export well-formedness (valid JSON, per-thread span nesting, one span per
// executed stage), the byte-identity contract (tracing never perturbs report
// bytes for any bench x sweep thread combination), the metrics registry
// (counters/gauges/histograms, Prometheus text, interval deltas) and the
// meta.wall report round-trip.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_parse.hpp"
#include "core/collector.hpp"
#include "core/output/json_output.hpp"
#include "core/output/report_io.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/kernels.hpp"
#include "sim/registry.hpp"

// --- Counting allocator hooks ------------------------------------------------
// Global operator new/delete replacements that count allocations, so the
// disabled-path test below can assert that span and metric sites perform no
// heap traffic when no sink is armed. Counting is process-wide; tests read
// deltas.

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// libstdc++'s std::get_temporary_buffer (std::stable_sort's scratch) asks
// the nothrow forms and frees through the replaced sized delete, so they must
// come from malloc too.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mt4g {
namespace {

/// Restores the process-wide obs singletons to the disabled state, so one
/// test's sinks never leak into the next (all tests share the process).
struct ObsQuiescent {
  ObsQuiescent() { reset(); }
  ~ObsQuiescent() { reset(); }
  static void reset() {
    obs::Tracer::instance().stop();
    obs::Metrics::instance().disable();
    obs::Metrics::instance().reset();
  }
};

fleet::DiscoveryJob test_job(std::uint32_t bench_threads = 1,
                             std::uint32_t sweep_threads = 1) {
  fleet::DiscoveryJob job;
  job.model = "TestGPU-NV";
  job.options.bench_threads = bench_threads;
  job.options.sweep_threads = sweep_threads;
  return job;
}

// --- Disabled path -----------------------------------------------------------

TEST(ObsDisabledPath, SpanAndMetricSitesAllocateNothing) {
  const ObsQuiescent quiescent;
  ASSERT_FALSE(obs::tracing_enabled());
  ASSERT_FALSE(obs::metrics_enabled());

  const std::string detail(64, 'x');  // pre-built, as at real call sites
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    const obs::SpanGuard plain("stage:run");
    const obs::SpanGuard dynamic("stage:", detail);
    obs::Metrics::instance().add("memo.hits");
    obs::Metrics::instance().set("exec.worker_busy_fraction", 0.5);
    obs::Metrics::instance().observe("replica.fork_ns", 123.0);
  }
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "disabled span/metric sites must not allocate";
}

// --- Tracer ------------------------------------------------------------------

TEST(ObsTrace, ExportIsWellFormedAndSpansNestPerThread) {
  const ObsQuiescent quiescent;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  const core::TopologyReport report = fleet::run_job(test_job(2, 2));
  tracer.stop();

  // Valid JSON with the Chrome trace-event shape.
  const json::Value trace = json::parse_or_throw(tracer.chrome_trace_json());
  const json::Value* trace_events = trace.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  const json::Array& events = trace_events->as_array();
  ASSERT_FALSE(events.empty());
  for (const json::Value& event : events) {
    ASSERT_NE(event.find("name"), nullptr);
    EXPECT_EQ(event.find("ph")->as_string(), "X");
    EXPECT_EQ(event.find("cat")->as_string(), "mt4g");
    EXPECT_GE(event.find("ts")->as_double(), 0.0);
    EXPECT_GE(event.find("dur")->as_double(), 0.0);
    EXPECT_EQ(event.find("pid")->as_int(), 1);
    EXPECT_GE(event.find("tid")->as_int(), 1);
  }

  // Spans nest properly within each thread: sorted by (start asc, end desc),
  // every span lies inside the enclosing open span of its thread.
  std::vector<obs::TraceEvent> spans = tracer.events();
  ASSERT_EQ(spans.size(), events.size());
  std::sort(spans.begin(), spans.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;
            });
  std::vector<const obs::TraceEvent*> stack;
  std::uint32_t tid = 0;
  for (const obs::TraceEvent& span : spans) {
    EXPECT_LE(span.start_ns, span.end_ns);
    if (span.tid != tid) {
      tid = span.tid;
      stack.clear();
    }
    while (!stack.empty() && stack.back()->end_ns <= span.start_ns) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      EXPECT_LE(span.end_ns, stack.back()->end_ns)
          << span.name << " overlaps " << stack.back()->name
          << " without nesting (tid " << span.tid << ")";
    }
    stack.push_back(&span);
  }

  // Exactly one discovery span, and one stage span per executed stage.
  std::size_t discovery_spans = 0;
  std::size_t stage_spans = 0;
  for (const obs::TraceEvent& span : spans) {
    if (span.name.rfind("discovery:", 0) == 0) ++discovery_spans;
    if (span.name.rfind("stage:", 0) == 0) ++stage_spans;
  }
  EXPECT_EQ(discovery_spans, 1u);
  EXPECT_EQ(stage_spans, report.stage_cycles.size());
}

TEST(ObsTrace, EveryStageForksItsSubstrateInAReplicaForkSpan) {
  // A stage runs on a fork of the owning Gpu, forked like every chase
  // replica: so every stage span holds a replica.fork span on its thread,
  // and --trace and replica.fork_ns see the substrate forks too.
  const ObsQuiescent quiescent;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  const core::TopologyReport report = fleet::run_job(test_job());
  tracer.stop();

  const std::vector<obs::TraceEvent> spans = tracer.events();
  std::size_t stages = 0;
  for (const obs::TraceEvent& stage : spans) {
    if (stage.name.rfind("stage:", 0) != 0) continue;
    ++stages;
    EXPECT_TRUE(std::any_of(
        spans.begin(), spans.end(), [&](const obs::TraceEvent& span) {
          return span.name == "replica.fork" && span.tid == stage.tid &&
                 span.start_ns >= stage.start_ns &&
                 span.end_ns <= stage.end_ns;
        }))
        << stage.name << " forked its substrate outside replica.fork";
  }
  EXPECT_EQ(stages, report.stage_cycles.size());
}

TEST(ObsTrace, PrunedStagesHaveNoSpans) {
  const ObsQuiescent quiescent;
  fleet::DiscoveryJob job = test_job();
  job.options.only = {sim::Element::kL1};

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  const core::TopologyReport report = fleet::run_job(job);
  tracer.stop();

  // Traced stage names must be exactly the executed (post-prune) stages.
  std::set<std::string> executed;
  for (const auto& stage : report.stage_cycles) executed.insert(stage.stage);
  std::set<std::string> traced;
  for (const obs::TraceEvent& span : obs::Tracer::instance().events()) {
    if (span.name.rfind("stage:", 0) == 0) {
      traced.insert(span.name.substr(6));
    }
  }
  EXPECT_EQ(traced, executed);
  // --only pruned the graph: a full discovery has strictly more stages.
  const core::TopologyReport full = fleet::run_job(test_job());
  EXPECT_LT(executed.size(), full.stage_cycles.size());
}

TEST(ObsTrace, TracingNeverChangesReportBytes) {
  const ObsQuiescent quiescent;
  for (const std::uint32_t bench : {1u, 8u}) {
    for (const std::uint32_t sweep : {1u, 8u}) {
      const std::string untraced =
          core::to_json_string(fleet::run_job(test_job(bench, sweep)));
      obs::Tracer::instance().start();
      const std::string traced =
          core::to_json_string(fleet::run_job(test_job(bench, sweep)));
      obs::Tracer::instance().stop();
      EXPECT_EQ(untraced, traced)
          << "tracing perturbed the report at bench_threads=" << bench
          << " sweep_threads=" << sweep;
    }
  }
}

TEST(ObsTrace, StopDropsRecordingButKeepsEvents) {
  const ObsQuiescent quiescent;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  { const obs::SpanGuard span("kept"); }
  tracer.stop();
  { const obs::SpanGuard span("dropped"); }
  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "kept");
}

// --- Metrics -----------------------------------------------------------------

TEST(ObsMetrics, CountersGaugesHistogramsAndDelta) {
  const ObsQuiescent quiescent;
  obs::Metrics& metrics = obs::Metrics::instance();
  metrics.reset();
  metrics.enable();

  metrics.add("memo.hits", 3);
  metrics.add("memo.hits", 2);
  metrics.set("exec.worker_busy_fraction", 0.25);
  metrics.set("exec.worker_busy_fraction", 0.75);
  metrics.observe("replica.fork_ns", 100.0);
  metrics.observe("replica.fork_ns", 300.0);

  const std::vector<obs::MetricSample> before = metrics.snapshot();
  ASSERT_EQ(before.size(), 3u);  // sorted by name
  EXPECT_EQ(before[0].name, "exec.worker_busy_fraction");
  EXPECT_EQ(before[0].kind, obs::MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(before[0].value, 0.75);
  EXPECT_EQ(before[1].name, "memo.hits");
  EXPECT_EQ(before[1].kind, obs::MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(before[1].value, 5.0);
  EXPECT_EQ(before[2].name, "replica.fork_ns");
  EXPECT_EQ(before[2].kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(before[2].count, 2u);
  EXPECT_DOUBLE_EQ(before[2].value, 400.0);
  EXPECT_DOUBLE_EQ(before[2].min, 100.0);
  EXPECT_DOUBLE_EQ(before[2].max, 300.0);

  metrics.add("memo.hits", 7);
  metrics.observe("replica.fork_ns", 50.0);
  metrics.set("exec.worker_busy_fraction", 0.5);
  const std::vector<obs::MetricSample> interval =
      obs::Metrics::delta(before, metrics.snapshot());
  ASSERT_EQ(interval.size(), 3u);
  EXPECT_DOUBLE_EQ(interval[0].value, 0.5);   // gauge: after value
  EXPECT_DOUBLE_EQ(interval[1].value, 7.0);   // counter: subtracted
  EXPECT_EQ(interval[2].count, 1u);           // histogram: subtracted
  EXPECT_DOUBLE_EQ(interval[2].value, 50.0);
  metrics.disable();
}

/// The value of counter @p name in @p samples (0 when absent).
double counter(const std::vector<obs::MetricSample>& samples,
               const std::string& name) {
  for (const obs::MetricSample& sample : samples) {
    if (sample.name == name) return sample.value;
  }
  return 0.0;
}

TEST(ObsMetrics, WarmWalksRunInClosedFormOnEveryBuiltin) {
  // sim.warm_loads counts the loads warm walks stand for, and
  // sim.warm_loads_stepped the ones executed one by one. Every chase runs
  // cold on its own, and its second array (amount, sharing, dual-CU) lies
  // above its first, so every warm walk starts beyond the lines each level
  // holds and runs in closed form: a precondition that silently fails
  // shows up here, not only in wall time.
  const ObsQuiescent quiescent;
  obs::Metrics& metrics = obs::Metrics::instance();
  metrics.enable();
  for (const std::string& model : sim::registry_all_names()) {
    const std::vector<obs::MetricSample> before = metrics.snapshot();
    sim::Gpu gpu(sim::registry_get(model), 42);
    (void)core::discover(gpu);
    const std::vector<obs::MetricSample> walked =
        obs::Metrics::delta(before, metrics.snapshot());
    const double loads = counter(walked, "sim.warm_loads");
    const double stepped = counter(walked, "sim.warm_loads_stepped");
    EXPECT_GT(loads, 0.0) << model;
    EXPECT_EQ(stepped, 0.0) << model;
  }
  metrics.disable();
}

TEST(ObsMetrics, TimedPassesReplayInClosedFormOnTheCompiledEngineOnly) {
  // sim.timed_loads counts the timed loads executed, and
  // sim.timed_loads_stepped the ones run_pass stepped one by one. The L2
  // size search's full passes over the L1-bypass path follow their warm
  // walks directly, so the compiled engine replays them; the reference
  // engine, the per-load oracle, steps every load.
  const ObsQuiescent quiescent;
  obs::Metrics& metrics = obs::Metrics::instance();
  metrics.enable();
  for (const runtime::PChaseEngine engine :
       {runtime::PChaseEngine::kCompiled, runtime::PChaseEngine::kReference}) {
    const runtime::ScopedPChaseEngine scope(engine);
    const std::vector<obs::MetricSample> before = metrics.snapshot();
    sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
    (void)core::discover(gpu);
    const std::vector<obs::MetricSample> timed =
        obs::Metrics::delta(before, metrics.snapshot());
    const double loads = counter(timed, "sim.timed_loads");
    const double stepped = counter(timed, "sim.timed_loads_stepped");
    EXPECT_GT(loads, 0.0);
    if (engine == runtime::PChaseEngine::kCompiled) {
      EXPECT_LT(stepped, loads);
    } else {
      EXPECT_EQ(stepped, loads);
    }
  }
  metrics.disable();
}

TEST(ObsMetrics, ResetsDropUnreadFillsOnTheCompiledEngineOnly) {
  // sim.fills_dropped counts the warm fills replica resets discard before
  // anything read them. TestGPU-AMD's CU-sharing pairs warm a partner CU's
  // sL1d that the timed pass never reads; the reference engine steps every
  // warm load, so it has no fill to drop.
  const ObsQuiescent quiescent;
  obs::Metrics& metrics = obs::Metrics::instance();
  metrics.enable();
  for (const runtime::PChaseEngine engine :
       {runtime::PChaseEngine::kCompiled, runtime::PChaseEngine::kReference}) {
    const runtime::ScopedPChaseEngine scope(engine);
    const std::vector<obs::MetricSample> before = metrics.snapshot();
    sim::Gpu gpu(sim::registry_get("TestGPU-AMD"), 42);
    (void)core::discover(gpu);
    const std::vector<obs::MetricSample> reset =
        obs::Metrics::delta(before, metrics.snapshot());
    EXPECT_GT(counter(reset, "sim.flushed_caches"), 0.0);
    const double dropped = counter(reset, "sim.fills_dropped");
    if (engine == runtime::PChaseEngine::kCompiled) {
      EXPECT_GT(dropped, 0.0);
    } else {
      EXPECT_EQ(dropped, 0.0);
    }
  }
  metrics.disable();
}

TEST(ObsMetrics, PrometheusTextFormat) {
  const ObsQuiescent quiescent;
  obs::Metrics& metrics = obs::Metrics::instance();
  metrics.reset();
  metrics.enable();
  metrics.add("fleet.jobs_done", 4);
  metrics.set("exec.worker_busy_fraction", 0.5);
  metrics.observe("exec.queue_wait_ns", 1000.0);
  metrics.disable();

  const std::string text = metrics.prometheus_text();
  EXPECT_NE(text.find("# TYPE mt4g_fleet_jobs_done counter"),
            std::string::npos);
  EXPECT_NE(text.find("mt4g_fleet_jobs_done 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mt4g_exec_worker_busy_fraction gauge"),
            std::string::npos);
  EXPECT_NE(text.find("mt4g_exec_queue_wait_ns_count 1"), std::string::npos);
  EXPECT_NE(text.find("mt4g_exec_queue_wait_ns_sum 1000"), std::string::npos);
  // Every non-comment line is "name value" with a dot-free sanitised name.
  std::size_t line_start = 0;
  while (line_start < text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = text.size();
    const std::string line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.rfind("mt4g_", 0), 0u) << line;
    EXPECT_EQ(line.substr(0, space).find('.'), std::string::npos)
        << "unsanitised metric name: " << line;
    EXPECT_EQ(line.find(' ', space + 1), std::string::npos) << line;
  }
}

TEST(ObsMetrics, DisabledRegistryIgnoresUpdates) {
  const ObsQuiescent quiescent;
  obs::Metrics& metrics = obs::Metrics::instance();
  metrics.reset();
  metrics.add("memo.hits");
  metrics.observe("replica.fork_ns", 1.0);
  EXPECT_TRUE(metrics.snapshot().empty());
}

// --- meta.wall report embedding ----------------------------------------------

TEST(ObsWallReport, MetricsRunEmbedsWallBlockAndRoundTrips) {
  const ObsQuiescent quiescent;
  obs::Metrics::instance().reset();
  obs::Metrics::instance().enable();
  const core::TopologyReport report = fleet::run_job(test_job(2, 2));
  obs::Metrics::instance().disable();

  ASSERT_TRUE(report.wall.enabled);
  EXPECT_GT(report.wall.wall_seconds, 0.0);
  ASSERT_FALSE(report.wall.samples.empty());
  std::set<std::string> names;
  for (const auto& sample : report.wall.samples) names.insert(sample.name);
  EXPECT_TRUE(names.count("pipeline.stage_wall_ns"));
  EXPECT_TRUE(names.count("memo.hits"));
  EXPECT_TRUE(names.count("memo.misses"));
  EXPECT_TRUE(names.count("replica.fork_ns"));
  EXPECT_TRUE(names.count("replica.reset_ns"));
  EXPECT_TRUE(names.count("exec.tasks"));

  // Per-stage wall time is serialised alongside cycles for wall-enabled runs.
  const std::string json_text = core::to_json_string(report);
  EXPECT_NE(json_text.find("\"wall\""), std::string::npos);
  EXPECT_NE(json_text.find("\"wall_seconds\""), std::string::npos);

  const core::TopologyReport parsed = core::from_json_string(json_text);
  ASSERT_TRUE(parsed.wall.enabled);
  ASSERT_EQ(parsed.wall.samples.size(), report.wall.samples.size());
  for (std::size_t i = 0; i < report.wall.samples.size(); ++i) {
    EXPECT_EQ(parsed.wall.samples[i].name, report.wall.samples[i].name);
    EXPECT_EQ(parsed.wall.samples[i].kind, report.wall.samples[i].kind);
    // dump() renders doubles with %.10g — compare with relative tolerance.
    EXPECT_NEAR(parsed.wall.samples[i].value, report.wall.samples[i].value,
                std::abs(report.wall.samples[i].value) * 1e-9 + 1e-9);
    EXPECT_EQ(parsed.wall.samples[i].count, report.wall.samples[i].count);
  }

  // A default (metrics-off) run of the same job stays wall-free.
  const core::TopologyReport plain = fleet::run_job(test_job(2, 2));
  EXPECT_FALSE(plain.wall.enabled);
  EXPECT_EQ(core::to_json_string(plain).find("\"wall\""), std::string::npos);
}

}  // namespace
}  // namespace mt4g
