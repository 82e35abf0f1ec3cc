// Top-level discovery entry point: runs the benchmark suite — organised as a
// declarative stage graph (core/pipeline/) — against one simulated GPU and
// assembles the unified TopologyReport (paper Sec. III-IV).
#pragma once

#include <cstdint>
#include <vector>

#include "core/cancel.hpp"
#include "core/report.hpp"
#include "sim/gpu.hpp"

namespace mt4g::exec {
class Executor;
}

namespace mt4g::core {

struct DiscoverOptions {
  /// Restrict discovery to a set of memory elements (the CLI's --only flag,
  /// paper Sec. V-A: an L1-only run cuts an A100 analysis from 12 to 1 min).
  /// The stage graph is pruned to the selected elements plus their
  /// transitive dependencies (e.g. --only const_l15 still runs the Const L1
  /// probes its benchmarks feed on, but only reports the CL1.5 row). Empty =
  /// full discovery; full-run-only stages (NVIDIA physical sharing, the
  /// compute suite) execute only when empty.
  std::vector<sim::Element> only;
  /// Collect the reduction-value series of every size benchmark (Fig. 2).
  bool collect_series = false;
  /// Also run the per-datatype compute-capability benchmarks (FLOPS for
  /// INT/FP precisions and tensor engines — the paper's Sec. VII extension).
  bool measure_compute = false;
  /// Parallelism of the batched chase plans (caller included) inside one
  /// benchmark — the size sweeps and the fg/line-size/amount/sharing
  /// batches — fanned over bench_executor (null: exec::shared_executor());
  /// 1 = the serial reference engine. The stage runner copies it into each
  /// stage's chase pool (runtime::ReplicaPool::threads), where the
  /// benchmarks' batches read it.
  std::uint32_t sweep_threads = 1;
  /// Parallelism across benchmarks (caller included): how many ready stages
  /// of the discovery stage graph run concurrently; 1 = serially on the
  /// calling thread, in topological order. Independent elements (L1 vs
  /// texture vs scratchpad vs L2) stop waiting on each other at values > 1.
  ///
  /// Like sweep_threads, this is purely an execution knob: the report is
  /// byte-identical for every bench_threads x sweep_threads combination —
  /// stages run on forked substrates with per-(seed, spec) noise streams,
  /// and bookings merge in stage-declaration order — so neither knob is
  /// part of
  /// fleet::DiscoveryJob::key().
  std::uint32_t bench_threads = 1;
  /// Executor the stage graph and its stages' chase batches run on;
  /// nullptr = exec::shared_executor(). Tests inject a dedicated pool to
  /// force real stage interleaving regardless of the host's core count.
  exec::Executor* bench_executor = nullptr;
  /// Cooperative wall-clock budget, checked before every stage of the graph
  /// (see core/cancel.hpp); expiry raises TimeoutError out of discover().
  /// Default-constructed = unlimited. Purely an execution knob like the
  /// thread counts: a completed discovery's report does not depend on it,
  /// so it is not part of fleet::DiscoveryJob::key().
  Deadline deadline;

  /// True when discovery is restricted to a subset of elements.
  bool restricted() const { return !only.empty(); }
  /// True when @p element should surface a report row.
  bool wants(sim::Element element) const;
};

/// Runs general/compute/memory discovery and returns the full report.
TopologyReport discover(sim::Gpu& gpu, const DiscoverOptions& options = {});

}  // namespace mt4g::core
