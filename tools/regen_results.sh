#!/usr/bin/env bash
# Regenerates the result transcripts into the git-ignored results/ directory:
#   results/test_output.txt   - full ctest run
#   results/bench_output.txt  - every bench binary at its default (scaled)
#                               settings
#   results/*.json    - machine-readable batches from the exp/-migrated benches
#   BENCH_*.json      - repo-root trajectory snapshots (engine throughput,
#                       workload fairness minima, peak RSS) whose git history
#                       tracks the perf/fairness trend across PRs
# Benches migrated onto the exp:: runner get --jobs $(nproc) (case-level
# parallelism; per-run seeds are thread-count independent, so the text
# tables are unchanged) and write their results.json into results/.
# Usage: tools/regen_results.sh [build-dir]
set -euo pipefail
BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc)"

# A regenerated transcript that silently omits a crashed bench is worse than
# no transcript: every failure below aborts the whole regeneration loudly.
fail() {
  echo "regen_results: FATAL: $*" >&2
  exit 1
}

OUT="$ROOT/results"

cmake --build "$ROOT/$BUILD"

mkdir -p "$OUT"
ctest --test-dir "$ROOT/$BUILD" 2>&1 | tee "$OUT/test_output.txt"

# Benches migrated onto the exp/ runner (accept --jobs/--json).
exp_benches="bench_fig7_droptail bench_fig9_red bench_fig10_rtt bench_multisession bench_engine bench_robustness bench_adversary bench_workload bench_scale"
is_exp_bench() {
  local name="$1" b
  for b in $exp_benches; do [ "$b" = "$name" ] && return 0; done
  return 1
}

# Benches that also emit a repo-root trajectory snapshot.
trajectory_args() {
  case "$1" in
    bench_engine)   echo "--trajectory $ROOT/BENCH_engine.json" ;;
    bench_workload) echo "--trajectory $ROOT/BENCH_workload.json" ;;
    bench_scale)    echo "--trajectory $ROOT/BENCH_scale.json" ;;
    *)              echo "" ;;
  esac
}

: > "$OUT/bench_output.txt"
for b in "$ROOT/$BUILD"/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  name="$(basename "$b")"
  echo "########## $name" | tee -a "$OUT/bench_output.txt"
  if is_exp_bench "$name"; then
    json="$OUT/$name.json"
    rm -f "$json"
    set +e
    # shellcheck disable=SC2046  # trajectory_args is empty or two words
    "$b" --jobs "$JOBS" --json "$json" \
      $(trajectory_args "$name") 2>&1 \
      | tee -a "$OUT/bench_output.txt"
    status=${PIPESTATUS[0]}
    set -e
    [ "$status" -eq 0 ] || fail "$name exited with status $status"
    [ -s "$json" ] || fail "$name emitted no JSON ($json missing or empty)"
    grep -q '"runs"' "$json" ||
      fail "$name JSON is malformed: no \"runs\" array in $json"
  else
    set +e
    "$b" 2>&1 | tee -a "$OUT/bench_output.txt"
    status=${PIPESTATUS[0]}
    set -e
    [ "$status" -eq 0 ] || fail "$name exited with status $status"
  fi
  echo | tee -a "$OUT/bench_output.txt"
done

# Crash-report summaries from any --isolate sweeps. Each report's header
# block (id, case, outcome, repro command) is folded into bench_output.txt
# so a regenerated transcript shows at a glance whether any run crashed.
{
  echo "########## crash reports (results/crashes)"
  found=0
  for r in "$OUT/crashes"/*.crash.txt; do
    [ -f "$r" ] || continue
    found=1
    echo "--- $(basename "$r")"
    sed -n '1,10p' "$r"
  done
  [ "$found" -eq 1 ] || echo "(none)"
  echo
} | tee -a "$OUT/bench_output.txt"
