#!/usr/bin/env bash
# Regenerates the golden smoke-output hashes in tests/golden/.
#
# Run from anywhere after an INTENTIONAL behaviour change, with a built
# tree (default ./build, override as $1); commit the resulting diff
# alongside the change so the golden_bench ctest entries pass again.
set -euo pipefail
cd "$(dirname "$0")/.."
build=${1:-build}

benches=(bench_fig7_droptail bench_fig8_signals bench_fig9_red
         bench_fig10_rtt bench_multisession bench_workload bench_robustness)
for b in "${benches[@]}"; do
  bin="$build/bench/$b"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake --build $build)" >&2
    exit 1
  fi
  "$bin" --smoke | sha256sum | awk '{print $1}' > "tests/golden/$b.sha256"
  echo "tests/golden/$b.sha256 <- $(cat tests/golden/$b.sha256)"
done
