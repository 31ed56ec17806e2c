#!/usr/bin/env bash
# Alternating parent/change pairs of the benchmark's end-to-end run.
#
#   tools/perf_pairs.sh [--trace] <parent-ref> <workload> <seeds> [out-dir]
#
# Exports <parent-ref> with `git archive` into a directory outside the
# repository (no worktree is registered, so nothing is left behind in .git)
# and compares it with the working tree.  For every seed, each checkout runs
# its own `perfbench/run.py --seconds <run_seconds> --trace 0` (run_seconds
# from BENCHMARK.json), back to back on the same seed; the side that goes
# first alternates from pair to pair, so slow drift on a shared host falls
# on both sides alike.  Each checkout builds its own benchmark binary on its
# first call.
#
# Rows {"workload", "seed", "result"} go to <out-dir>/parent.jsonl and
# <out-dir>/change.jsonl (default out-dir: a fresh directory under $TMPDIR);
# run.py's stderr goes to <out-dir>/runs.log.  At the end the script prints
# the per-pair sim_s_per_wall_s ratios (change / parent), how many pairs the
# change won, and `perfbench/compare.py diff parent.jsonl change.jsonl`,
# and exits with diff's status.
#
# --trace runs the pairs with `--trace 1` instead and prints, for every
# per-layer row (sim.event_ns, net.hop_ns, sim.dispatch_ns.p50,
# rla.ack_share, ...), each side's median and quartiles over the pairs and
# the ratio of the medians: one traced run cannot tell two builds apart,
# the spread over alternating runs can.  It exits 0 once every run worked.
#
# <seeds> uses compare.py's syntax: "10-19" or "1,3,20-22".
set -euo pipefail

TRACE=0
if [ "${1:-}" = "--trace" ]; then
  TRACE=1
  shift
fi
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 [--trace] <parent-ref> <workload> <seeds> [out-dir]" >&2
  exit 2
fi
PARENT_REF="$1"
WORKLOAD="$2"
SEEDS="$3"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="${4:-$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")}"
mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)"
case "$OUT/" in
  "$ROOT"/*) echo "perf_pairs: out-dir must lie outside $ROOT" >&2; exit 2 ;;
esac

SRC="$OUT/parent-src"
cleanup() { rm -rf "$SRC"; }
trap cleanup EXIT
rm -rf "$SRC"
mkdir -p "$SRC"
git -C "$ROOT" archive --format=tar "$PARENT_REF" | tar -x -C "$SRC"

SECONDS_PER_RUN="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$ROOT/BENCHMARK.json")"
SEED_LIST="$(python3 -c '
import sys
for part in sys.argv[1].split(","):
    lo, _, hi = part.partition("-")
    print(*range(int(lo), int(hi or lo) + 1))
' "$SEEDS")"

: > "$OUT/parent.jsonl"
: > "$OUT/change.jsonl"
: > "$OUT/runs.log"

# run_side <checkout> <seed> <jsonl>: one run.py call, appended as a row.
run_side() {
  local dir="$1" seed="$2" jsonl="$3" line
  echo "== $dir seed $seed" >> "$OUT/runs.log"
  if ! line="$(python3 "$dir/perfbench/run.py" --workload "$WORKLOAD" \
      --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace "$TRACE" \
      2>> "$OUT/runs.log" | tail -n 1)" || [ -z "$line" ]; then
    echo "perf_pairs: run failed in $dir (seed $seed); see $OUT/runs.log" >&2
    exit 1
  fi
  python3 -c '
import json, sys
print(json.dumps({"workload": sys.argv[1], "seed": int(sys.argv[2]),
                  "result": json.loads(sys.argv[3])}))
' "$WORKLOAD" "$seed" "$line" >> "$jsonl"
}

pair=0
for seed in $SEED_LIST; do
  if [ $((pair % 2)) -eq 0 ]; then
    run_side "$SRC" "$seed" "$OUT/parent.jsonl"
    run_side "$ROOT" "$seed" "$OUT/change.jsonl"
  else
    run_side "$ROOT" "$seed" "$OUT/change.jsonl"
    run_side "$SRC" "$seed" "$OUT/parent.jsonl"
  fi
  pair=$((pair + 1))
  echo "perf_pairs: pair $pair (seed $seed) done" >&2
done

if [ "$TRACE" = 1 ]; then
  python3 - "$OUT/parent.jsonl" "$OUT/change.jsonl" <<'EOF'
import json, statistics, sys
rows = lambda p: [json.loads(line)["result"]["metrics"]
                  for line in open(p) if line.strip()]
parent, change = rows(sys.argv[1]), rows(sys.argv[2])
quartiles = lambda v: statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
side = lambda q: "%-11.5g [%.5g, %.5g]" % (q[1], q[0], q[2])
print("%-26s %-34s %-34s %s" % ("row (%d pairs)" % len(parent),
                                "parent median [q1, q3]",
                                "change median [q1, q3]", "change/parent"))
for name in parent[0]:
    p = quartiles([m[name]["value"] for m in parent])
    c = quartiles([m[name]["value"] for m in change])
    print("%-26s %-34s %-34s %s" % (name, side(p), side(c),
                                    "%.3f" % (c[1] / p[1]) if p[1] else "-"))
EOF
  echo "rows: $OUT/parent.jsonl $OUT/change.jsonl"
  exit 0
fi

python3 - "$OUT/parent.jsonl" "$OUT/change.jsonl" <<'EOF'
import json, statistics, sys
metric = "sim_s_per_wall_s"
load = lambda p: {r["seed"]: r["result"]["metrics"][metric]["value"]
                  for r in map(json.loads, open(p)) if r}
parent, change = load(sys.argv[1]), load(sys.argv[2])
ratios = []
for seed in parent:
    ratios.append(change[seed] / parent[seed])
    print("seed %-4d parent %8.2f  change %8.2f  ratio %.3f" %
          (seed, parent[seed], change[seed], ratios[-1]))
wins = sum(r > 1.0 for r in ratios)
print("%s: change won %d of %d pairs; median ratio %.3f" %
      (metric, wins, len(ratios), statistics.median(ratios)))
EOF
echo "rows: $OUT/parent.jsonl $OUT/change.jsonl"
python3 "$ROOT/perfbench/compare.py" diff "$OUT/parent.jsonl" "$OUT/change.jsonl"
