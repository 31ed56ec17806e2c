#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them against BENCHMARK.json.

    # ten seeds of one workload into a JSON-lines file
    python3 perfbench/compare.py collect --workload fig7-l1-droptail \
        --seeds 1-10 --out base.jsonl
    # per-metric median, quartiles and spread (IQR / median) vs the bound
    python3 perfbench/compare.py spread base.jsonl
    # verdict per workload and end-to-end metric: worse, better, unchanged
    python3 perfbench/compare.py diff base.jsonl new.jsonl
    # the gate's own test: an A/A pair must read unchanged and the injected
    # per-dispatch busy-wait must read worse on sim_s_per_wall_s
    python3 perfbench/compare.py selftest --seeds 1-10

`diff` applies the rule the bounds are defined by: a metric is worse when
the new median is worse than the base median by more than `bound` times the
base median, better when it is better by more than that, and unchanged
otherwise. A metric whose spread in either set exceeds its bound is marked
unresolved instead of unchanged. Exit status: `spread` returns 1 when any
metric's spread exceeds its bound, `diff` when any metric is worse, and
`selftest` unless both verdicts hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.loads(open(os.path.join(ROOT, "BENCHMARK.json")).read())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
SELFTEST_WORKLOAD = "fig7-l1-droptail"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, inject_slowdown=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    if inject_slowdown:
        cmd.append("--inject-slowdown")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, cwd=ROOT)
    if out.returncode != 0:
        raise SystemExit("run failed: %s" % " ".join(cmd))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    row = {"workload": workload, "seed": seed, "result": result}
    print(json.dumps(row), file=sys.stderr, flush=True)
    return row


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values(rows, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in rows
            if r["workload"] == workload and metric in r["result"]["metrics"]]


def spread(vals):
    """IQR / median, with quartiles as statistics.quantiles(n=4) gives them."""
    if len(vals) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else float("inf")


def workloads_of(*sets):
    seen = []
    for rows in sets:
        for r in rows:
            if r["workload"] not in seen:
                seen.append(r["workload"])
    return seen


def report_spread(rows):
    ok = True
    for w in workloads_of(rows):
        runs = [r for r in rows if r["workload"] == w]
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print("%s: %d runs, %d/%d calls failed" % (w, len(runs), failed, attempted))
        for name, m in E2E.items():
            vals = values(rows, w, name)
            if not vals:
                continue
            s = spread(vals)
            within = s <= m["bound"]
            ok &= within
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            print("  %-18s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%"
                  "  bound %4.0f%%  %s" % (
                      name, statistics.median(vals), q[0], q[2], 100 * s,
                      100 * m["bound"],
                      "steady" if s <= m["bound"] / 3 else
                      ("within bound" if within else "TOO NOISY")))
    return ok


def verdict(base_vals, new_vals, m):
    b = statistics.median(base_vals)
    n = statistics.median(new_vals)
    change = (n - b) / b if b else 0.0
    worse = -change if m["better"] == "higher" else change
    if worse > m["bound"]:
        return "worse", change
    if -worse > m["bound"]:
        return "better", change
    if max(spread(base_vals), spread(new_vals)) > m["bound"]:
        return "unresolved", change
    return "unchanged", change


def report_diff(base, new):
    verdicts = {}
    for w in workloads_of(base, new):
        for name, m in E2E.items():
            b, n = values(base, w, name), values(new, w, name)
            if not b or not n:
                continue
            v, change = verdict(b, n, m)
            verdicts[(w, name)] = v
            print("%-18s %-18s %+7.2f%% (bound %2.0f%%)  %s" % (
                w, name, 100 * change, 100 * m["bound"], v))
    return verdicts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", action="append", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("file")
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    t = sub.add_parser("selftest")
    t.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    if args.cmd == "collect":
        with open(args.out, "a") as f:
            for seed in parse_seeds(args.seeds):
                for w in args.workload:
                    row = run_once(w, seed)
                    f.write(json.dumps(row) + "\n")
                    f.flush()
        return 0
    if args.cmd == "spread":
        return 0 if report_spread(load(args.file)) else 1
    if args.cmd == "diff":
        v = report_diff(load(args.base), load(args.new))
        return 1 if "worse" in v.values() else 0

    # selftest: A, A' and the slowed variant B (run.py --inject-slowdown)
    # run interleaved per seed, so slow drifts of the machine hit all three
    # sets alike.
    a, a2, b = [], [], []
    for seed in parse_seeds(args.seeds):
        a.append(run_once(SELFTEST_WORKLOAD, seed))
        b.append(run_once(SELFTEST_WORKLOAD, seed, inject_slowdown=True))
        a2.append(run_once(SELFTEST_WORKLOAD, seed))
    print("A/A (unmodified against unmodified):")
    aa = report_diff(a, a2)
    print("A/B (unmodified against the injected busy-wait per dispatch):")
    ab = report_diff(a, b)
    key = (SELFTEST_WORKLOAD, "sim_s_per_wall_s")
    ok = aa.get(key) == "unchanged" and ab.get(key) == "worse"
    print("selftest: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
