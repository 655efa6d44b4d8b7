#!/usr/bin/env bash
# Builds apks_bench (Release) from this checkout's sources and runs it.
#
#   e2ebench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
#   e2ebench/run.sh --seed 1 --seconds 10 --trace 1   # all four workloads
#
# Build output goes to stderr. Each run's report goes to stdout and ends
# with its one-line result JSON. The build, the temporary stores and the
# trace-<workload>.json files live under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "run.sh: the apks sources ($root/src) are missing" >&2
  exit 1
fi

build_root="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build_root" == /* ]] || build_root="$root/$build_root"
build="$build_root/e2ebench"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$root/e2ebench" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target apks_bench -j "$(nproc 2>/dev/null || echo 2)" >&2

mkdir -p "$build/work" "$build/out"
dirs=(--work-dir "$build/work" --out-dir "$build/out")

for arg in "$@"; do
  if [[ "$arg" == "--workload" || "$arg" == "--check" ]]; then
    exec "$build/apks_bench" "$@" "${dirs[@]}"
  fi
done
for workload in hot scan ingest cluster; do
  "$build/apks_bench" --workload "$workload" "$@" "${dirs[@]}"
done
