#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last stdout line.

    python3 perfbench/run.py --workload fig7-l1-droptail --seed 1 \
        --seconds 20 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The first call builds the library and the perfbench binary from
source into .bench_build/perfbench (about 30 s on 4 cores); later calls only
re-check the build. The binary then runs the workload in one process, on one
thread, one simulation at a time, and this script relays its JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(see perfbench/README.md). --inject-slowdown selects the injected-regression
variant that `compare.py selftest` runs: every dispatch busy-waits for twice
the sim_s_per_wall_s bound in BENCHMARK.json, as a share of the untraced
time per dispatch. Build and run diagnostics go to stderr. The exit status
is non-zero, and no result is printed, when the program cannot be built or
the run does not produce a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; leave room for the build check and teardown.
RUN_DEADLINE_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark package; returns success."""
    tmp = os.path.join(BUILD, "tmp")  # keep compiler temporaries in-tree
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def run(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode == 0

    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not run(configure):
            return False
    if run(["cmake", "--build", BUILD, "-j", jobs]):
        return True
    # A cache from another checkout location cannot be reused: start over.
    shutil.rmtree(BUILD, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    return run(configure) and run(["cmake", "--build", BUILD, "-j", jobs])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--inject-slowdown", action="store_true")
    args = ap.parse_args()

    t0 = time.monotonic()
    if not build() or not os.path.exists(BINARY):
        log("run.py: build failed")
        return 2
    log("run.py: build ready after %.1f s" % (time.monotonic() - t0))

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.inject_slowdown:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bound = next(m["bound"] for m in json.load(f)["end_to_end"]
                         if m["name"] == "sim_s_per_wall_s")
        cmd += ["--spin-fraction", repr(2 * bound)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        log("run.py: perfbench exceeded %.0f s" % RUN_DEADLINE_S)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("run.py: perfbench exited with %d" % proc.returncode)
        return proc.returncode or 4
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        log("run.py: unreadable result line: %s" % e)
        return 5
    if set(result) != RESULT_KEYS:
        log("run.py: result has keys %s" % sorted(result))
        return 5
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
