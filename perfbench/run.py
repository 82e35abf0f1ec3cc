#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload registry-parallel --seed 1 \
        --seconds 40 --trace 0

The binary and the mt4g library it links are compiled with CMake into
$CARGO_TARGET_DIR (default: .bench_build at the repository root) on first
use, in a build directory named after the checkout's path; build output
goes to stderr. Its stdout passes through unchanged, so
its last line is the JSON result. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("registry-parallel", "fleet-small")
# The run itself must end within 180 s; leave room for start-up and cleanup.
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def source_id():
    """The git sha of the checkout, else a digest of the sources built."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        git = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
        if git.returncode == 0 and git.stdout.strip():
            return git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        paths = sorted(os.path.join(folder, name)
                       for folder, _, names in os.walk(os.path.join(ROOT, base))
                       for name in names)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "mt4g.hpp")):
        sys.exit("perfbench: the mt4g sources (src/) are missing; "
                 "run from a full checkout")
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    args = parse_args()
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    # CMake bakes the source tree into its build directory, so checkouts
    # sharing one target directory each get a build directory of their own.
    tree = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    build_dir = os.path.join(target_dir, "perfbench-" + tree)
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as error:
        sys.exit("perfbench: build failed (%s)" % error)
    scratch = os.path.join(target_dir, "run-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--source", source_id(), "--scratch", scratch]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
