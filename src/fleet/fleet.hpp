// Umbrella header: the fleet discovery orchestrator.
//
// Typical use (threads in one process):
//   fleet::SweepPlan plan;                       // whole registry, one seed
//   plan.seed_count = 3;
//   fleet::ResultCache cache("fleet_cache.json");
//   fleet::SchedulerOptions scheduler;
//   scheduler.workers = 8;
//   scheduler.cache = &cache;
//   const auto results = fleet::run_sweep(fleet::expand_jobs(plan), scheduler);
//   std::cout << fleet::to_markdown(fleet::aggregate(results));
//   cache.save();
//
// Resumable, optionally crash-isolated: one options value drives either
// runner, and the journal works in both.
//   fleet::SupervisorOptions options;  // SchedulerOptions + the worker pool
//   options.procs = 4;
//   options.worker_argv = {argv0, "fleet-worker"};
//   std::vector<fleet::JobResult> prefilled;
//   fleet::apply_journal(jobs, fleet::load_journal("run.journal"), prefilled);
//   auto journal = fleet::RunJournal::open("run.journal");
//   options.journal = &journal;
//   const auto results =
//       isolate ? fleet::run_supervised(jobs, options, std::move(prefilled))
//               : fleet::run_sweep(jobs, options, std::move(prefilled));
#pragma once

#include "fleet/aggregate.hpp"  // IWYU pragma: export
#include "fleet/cache.hpp"      // IWYU pragma: export
#include "fleet/fault.hpp"      // IWYU pragma: export
#include "fleet/job.hpp"        // IWYU pragma: export
#include "fleet/journal.hpp"    // IWYU pragma: export
#include "fleet/proto.hpp"      // IWYU pragma: export
#include "fleet/scheduler.hpp"  // IWYU pragma: export
#include "fleet/supervise.hpp"  // IWYU pragma: export
#include "fleet/worker.hpp"     // IWYU pragma: export
