#!/usr/bin/env python3
"""Runs perfbench in alternating parent/change pairs and writes BENCH_perfbench.json.

Usage, from the repository root:

    python3 scripts/bench_pairs.py --parent REV [--pairs N] [--seconds S]

REV is exported with `git archive` into a temporary directory. Each pair
runs `perfbench/run.py --trace 0` once in that export (the parent) and once
in the working tree (the change), for every workload perfbench knows, with
a seed of its own: pair k uses seed k. Odd pairs run the parent first and
even pairs the change first, so a host that drifts during the runs weighs
on both sides alike. Each side builds its own binary on its first run
(perfbench/run.py keys the build directory by the checkout's path).

After a workload's pairs, each side runs it once more with
`--trace 1 --seed 42`, which reports perfbench's per-layer metrics. Some of
them are exact counts of work that a change which keeps reports
byte-identical must leave alone (EXACT and EXACT_PREFIXES below); each of
those that differs between the sides is printed on stderr.

The output file holds, per workload and end-to-end metric, each side's
values in pair order with their median and quartiles, the parent's
interquartile range, and the pairs in which the change did better (by the
metric's direction in BENCHMARK.json); per run, its seed, operations
attempted and failed, and whether it was correct; per workload, both
sides' traced per-layer metrics and the exact counters that differ; and
the host block of the first run (CPU model, nproc, measured parallelism).
Exits 1 when a run prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("registry-parallel", "fleet-small")
TRACED_SEED = 42
# Per-layer metrics that count work rather than time it: equal on both sides
# unless the change alters what discovery computes.
EXACT = ("runtime.chases", "runtime.memo_hit_rate", "pipeline.stages",
         "pipeline.total_cycles", "pipeline.critical_path_cycles",
         "pipeline.simulated_s")
EXACT_PREFIXES = ("pipeline.stage_cycles.", "check.")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      "BENCH_perfbench.json"))
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    return args


def git(*argv):
    return subprocess.run(["git"] + list(argv), cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, into):
    """Writes the tree of @p rev into the directory @p into."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit("bench_pairs: git archive %s failed" % rev)


def run_perfbench(tree, workload, seed, seconds, trace="0"):
    """One perfbench run in @p tree: (host block, result) from its stdout."""
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", trace]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          text=True)
    host, result = None, None
    for line in done.stdout.splitlines():
        try:
            document = json.loads(line)
        except ValueError:
            continue
        if isinstance(document, dict) and "host" in document:
            host = document["host"]
        elif isinstance(document, dict) and "metrics" in document:
            result = document
    if result is None:
        sys.exit("bench_pairs: %s (seed %d) in %s printed no result "
                 "(exit %d)" % (workload, seed, tree, done.returncode))
    return host, result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(values):
    q1, median, q3 = quartiles(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def is_exact(name):
    return name in EXACT or name.startswith(EXACT_PREFIXES)


def traced_layers(trees, workload, seconds):
    """Both sides' traced per-layer metrics and the exact ones that differ."""
    layers = {}
    for side in ("parent", "change"):
        print("bench_pairs: %s traced, %s" % (workload, side),
              file=sys.stderr, flush=True)
        _, result = run_perfbench(trees[side], workload, TRACED_SEED,
                                  seconds, trace="1")
        layers[side] = {name: entry["value"]
                        for name, entry in result["metrics"].items()}
    differing = []
    for name in sorted(set(layers["parent"]) | set(layers["change"])):
        parent = layers["parent"].get(name)
        change = layers["change"].get(name)
        if is_exact(name) and parent != change:
            differing.append({"name": name, "parent": parent,
                              "change": change})
            print("bench_pairs: %s traced: exact counter %s differs: "
                  "parent %r, change %r" % (workload, name, parent, change),
                  file=sys.stderr)
    return {"seed": TRACED_SEED, "parent": layers["parent"],
            "change": layers["change"], "differing_exact": differing}


def main():
    args = parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    declared = {metric["name"]: metric for metric in declared["end_to_end"]}
    document = {
        "parent": git("rev-parse", args.parent),
        "change": "working tree on " + git("rev-parse", "HEAD"),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "order": "parent first on odd pairs, change first on even pairs; "
                 "pair k runs seed k",
        "host": None,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as parent_tree:
        export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in WORKLOADS:
            runs = {"parent": [], "change": []}
            for pair in range(1, args.pairs + 1):
                order = (("parent", "change") if pair % 2 == 1
                         else ("change", "parent"))
                for side in order:
                    print("bench_pairs: %s pair %d/%d, %s" %
                          (workload, pair, args.pairs, side),
                          file=sys.stderr, flush=True)
                    host, result = run_perfbench(trees[side], workload, pair,
                                                 args.seconds)
                    if document["host"] is None:
                        document["host"] = host
                    runs[side].append({
                        "seed": pair,
                        "correct": result.get("correct"),
                        "attempted": result.get("attempted"),
                        "failed": result.get("failed"),
                        "parallelism": (host or {}).get("parallelism"),
                        "metrics": {name: entry["value"] for name, entry
                                    in result["metrics"].items()},
                    })
            metrics = {}
            for name, metric in declared.items():
                direction = metric["better"]
                parent = [run["metrics"][name] for run in runs["parent"]]
                change = [run["metrics"][name] for run in runs["change"]]
                wins = sum(1 for p, c in zip(parent, change)
                           if (c < p if direction == "lower" else c > p))
                summary = {"unit": metric["unit"],
                           "better": direction,
                           "parent": summarize(parent),
                           "change": summarize(change),
                           "change_wins": wins}
                summary["parent_iqr"] = (summary["parent"]["q3"] -
                                         summary["parent"]["q1"])
                metrics[name] = summary
            document["workloads"][workload] = {
                "runs": {side: [{key: run[key] for key in run
                                 if key != "metrics"} for run in side_runs]
                         for side, side_runs in runs.items()},
                "metrics": metrics,
                "traced": traced_layers(trees, workload, args.seconds),
            }
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print("bench_pairs: wrote %s" % args.out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
