#!/usr/bin/env bash
# Byte-compares two builds' smoke runs: the stdout and every replay journal
# of bench_fig7_droptail, bench_fig9_red, bench_workload, bench_robustness,
# bench_partition and bench_adversary, and the journals of bench_scale (its
# stdout carries wall-timed µs/ACK and ns/signal columns, so it is not
# compared).
#
#   tools/cmp_journals.sh PARENT_BUILD CHANGE_BUILD
#
# Each bench runs `--smoke --record-journal` once per build. The two stdouts
# and every journal pair (matched by file name) are compared with cmp; the
# first difference is printed. Both journal sets are deleted before the next
# bench starts, so peak disk is one bench's pair (the seven sets together are
# ~9 GB per build). Runs write under $TMPDIR (default /tmp). Exits 0
# when everything is byte-identical, 1 on any difference, 2 on misuse.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
benches=(bench_fig7_droptail bench_fig9_red bench_workload bench_robustness
         bench_partition bench_adversary bench_scale)
wall_timed_stdout=(bench_scale)
for b in "${benches[@]}"; do
  for build in "$parent" "$change"; do
    if [[ ! -x "$build/bench/$b" ]]; then
      echo "error: $build/bench/$b not built" >&2
      exit 2
    fi
  done
done

work=$(mktemp -d "${TMPDIR:-/tmp}/cmp_journals.XXXXXX")
trap 'rm -rf "$work"' EXIT

status=0
for b in "${benches[@]}"; do
  same=1
  # Same relative journal path on both sides, so stdouts that name it agree.
  for side in parent change; do
    mkdir -p "$work/$side/journals"
    build=$parent
    [[ $side == change ]] && build=$change
    if ! (cd "$work/$side" &&
          "$build/bench/$b" --smoke --record-journal journals > stdout); then
      echo "$b: the $side build's run failed"
      same=0
    fi
  done
  compared="stdout and "
  if [[ " ${wall_timed_stdout[*]} " == *" $b "* ]]; then
    compared=""
  elif ! cmp "$work/parent/stdout" "$work/change/stdout"; then
    diff "$work/parent/stdout" "$work/change/stdout" | head -n 5 || true
    same=0
  fi
  names_parent=$(cd "$work/parent/journals" && ls)
  names_change=$(cd "$work/change/journals" && ls)
  if [[ "$names_parent" != "$names_change" ]]; then
    echo "$b: journal sets differ:"
    diff <(echo "$names_parent") <(echo "$names_change") | head -n 5 || true
    same=0
  fi
  n=0
  for f in $names_parent; do
    [[ -f "$work/change/journals/$f" ]] || continue
    n=$((n + 1))
    if ! cmp "$work/parent/journals/$f" "$work/change/journals/$f"; then
      same=0
      break
    fi
  done
  if [[ $same == 1 ]]; then
    echo "$b: ${compared}$n journals identical"
  else
    echo "$b: DIFFERS"
    status=1
  fi
  rm -rf "$work/parent" "$work/change"
done
exit $status
