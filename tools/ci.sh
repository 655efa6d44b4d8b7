#!/usr/bin/env bash
# CI gate: the tier-1 verify (full build + test suite), an ASan build of the
# storage-engine tests (segment format, crash recovery) plus the store bench
# artifact, a ThreadSanitizer build of the cloud/server concurrency tests,
# a UBSan build of the scheme-backend surface (mrqed, proxy ingest,
# backend type-erasure), a UBSan pairing stage that runs the
# multi-pairing/SIMD-kernel, batched point-decode, IBS verification and
# serving-decoder (backend_test) tests (the verify runs a preprocessed
# multi-pairing over window tables), the one-record prepared search
# (apks_test) and the prepared-capability heap budget with the lane
# engines forced on and off (APKS_FORCE_SCALAR) and the scan-kernel tests
# once more on the AVX2 engine (APKS_SIMD=avx2), and a
# serving stage for the network layer (TSan server+client loopback tests,
# the ASan hostile-frame sweep, and the serving load-generator smoke
# artifact),
# plus the end-to-end benchmark's --check run. Smoke and sanitized bench
# artifacts are written into the build tree they came from; the committed
# BENCH_*.json files come only from Release, non-smoke runs.
# Run from the repository root:
#
#   tools/ci.sh            # tier-1 + store + TSan + UBSan + pairing + chaos +
#                          #   serving + cluster + e2e
#   tools/ci.sh --store    # store stage only (ASan + crash recovery + bench
#                          #   smoke, artifact under build-asan/)
#   tools/ci.sh --tsan     # TSan cloud, store and work-pool tests +
#                          #   BoundedLru hammer only
#   tools/ci.sh --ubsan    # UBSan backend/mrqed/proxy tests only
#   tools/ci.sh --pairing  # UBSan pairing/SIMD tests + pairing bench artifact
#   tools/ci.sh --chaos    # ASan fault-injection suite + fault bench artifact
#   tools/ci.sh --serving  # network layer: TSan + ASan net tests + bench artifact
#   tools/ci.sh --cluster  # cluster tier: ASan multi-node loopback suite +
#                          #   cluster chaos filters, TSan self-healing suite
#                          #   (heartbeats/reconfig/hedged reads) + bench artifact
#   tools/ci.sh --e2e      # end-to-end benchmark check: every workload once,
#                          #   results asserted against the oracle
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}
STAGE=all
[[ "${1:-}" == "--tsan" ]] && STAGE=tsan
[[ "${1:-}" == "--store" ]] && STAGE=store
[[ "${1:-}" == "--ubsan" ]] && STAGE=ubsan
[[ "${1:-}" == "--pairing" ]] && STAGE=pairing
[[ "${1:-}" == "--chaos" ]] && STAGE=chaos
[[ "${1:-}" == "--serving" ]] && STAGE=serving
[[ "${1:-}" == "--cluster" ]] && STAGE=cluster
[[ "${1:-}" == "--e2e" ]] && STAGE=e2e

# configure DIR [extra cmake args...]
#
# Wraps `cmake -B DIR` with a staleness check: a build directory configured
# with a *different* APKS_SANITIZE value poisons incremental builds (objects
# compiled with the old flags link silently into new binaries), so wipe it
# and configure from scratch when the cached value disagrees.
configure() {
  local dir=$1
  shift
  local want=""
  for arg in "$@"; do
    [[ "$arg" == -DAPKS_SANITIZE=* ]] && want="${arg#-DAPKS_SANITIZE=}"
  done
  if [[ -f "$dir/CMakeCache.txt" ]]; then
    local have
    have=$(sed -n 's/^APKS_SANITIZE:[^=]*=//p' "$dir/CMakeCache.txt")
    if [[ "$have" != "$want" ]]; then
      echo "--- $dir: cached APKS_SANITIZE='$have' != wanted '$want'," \
           "reconfiguring from scratch ---"
      rm -rf "$dir"
    fi
  fi
  cmake -B "$dir" -S . "$@"
}

if [[ $STAGE == all ]]; then
  echo "=== tier-1: no tracked build trees ==="
  if [[ -n "$(git ls-files -- 'build*/*')" ]]; then
    echo "build output is tracked by git (untrack it: git rm -r --cached):"
    git ls-files -- 'build*/*' | sed -n '1,5p'
    exit 1
  fi

  echo "=== tier-1: one server scan ==="
  # Search lives only in SearchEngine: one scan_block failpoint site in
  # src/ and no other failpoint site named for a scan, and neither
  # CloudServer (the record set) nor src/store/ (the record source)
  # spawns threads or prepares and matches queries itself.
  scan_sites=$(grep -rn 'failpoint("[A-Za-z_.]*scan_block")' src | wc -l)
  if (( scan_sites > 1 )); then
    echo "src/ has $scan_sites scan_block failpoint sites (want one):"
    grep -rn 'failpoint("[A-Za-z_.]*scan_block")' src
    exit 1
  fi
  if grep -nE '#include <thread>|\bmatch(_block)?\(' \
       src/cloud/server.h src/cloud/server.cpp; then
    echo "src/cloud/server.{h,cpp} scans records; searching belongs to" \
         "SearchEngine"
    exit 1
  fi
  scan_named=$(grep -rhoE \
    'failpoint\("[^"]*scan[^"]*"\)|kSite[A-Za-z]* = "[^"]*scan[^"]*"' src |
    grep -vFx 'failpoint("engine.scan_block")' || true)
  if [[ -n "$scan_named" ]]; then
    echo "src/ has a scan failpoint site other than engine.scan_block:"
    echo "$scan_named"
    exit 1
  fi
  if grep -rnE '#include <thread>|\b(prepare|match|match_block)\(' \
       src/store; then
    echo "src/store/ searches records; searching belongs to SearchEngine"
    exit 1
  fi
  # SearchEngine's search surface: search_batch_signed (verifies),
  # serve_admitted (authorized out of band) and the one
  # search_batch_unchecked_any wrapper the end-to-end benchmark calls.
  engine_search=$(grep -v '^\s*//' src/cloud/search_engine.h |
    grep -oE '\b(search|serve)(_[a-z_]+)?\(' | sort | uniq -c |
    grep -vxE ' *1 (search_batch_signed|serve_admitted|search_batch_unchecked_any)\(' ||
    true)
  if [[ -n "$engine_search" ]]; then
    echo "src/cloud/search_engine.h declares search members beyond" \
         "search_batch_signed, serve_admitted and one" \
         "search_batch_unchecked_any:"
    echo "$engine_search"
    exit 1
  fi
  if grep -rnE --exclude=ci.sh \
       'search_batch_unchecked_any_ids|search_batch_unchecked\(|search_batch\(' \
       src tools bench tests examples; then
    echo "a deleted SearchEngine entry point is still called or named"
    exit 1
  fi

  echo "=== tier-1: one LRU ==="
  # Every cache in src/ is a BoundedLru: its eviction order, locking and
  # budget-0 rule exist once, in common/bounded_lru.h.
  if grep -rnE 'std::list|\.splice\(' src |
       grep -v '^src/common/bounded_lru\.h:'; then
    echo "a list-plus-map LRU outside src/common/bounded_lru.h; use BoundedLru"
    exit 1
  fi

  echo "=== tier-1: one pool ==="
  # Parallel work runs on the process-wide work pool (parallel_run); only
  # the pool, the NetServer io loops and workers, the HealthMonitor and the
  # coordinator's per-RPC scatter (until it is event-driven) own threads.
  # std::this_thread and std::thread::hardware_concurrency are fine.
  if grep -rnP 'std::j?thread\b(?!::hardware_concurrency)' src |
       grep -vE '^src/(common/work_pool\.cpp|net/server\.(h|cpp)|cluster/(health|coordinator)\.(h|cpp)):'; then
    echo "src/ names std::thread outside the work pool; use parallel_run" \
         "(common/work_pool.h)"
    exit 1
  fi

  echo "=== tier-1: full build + ctest ==="
  configure build
  cmake --build build -j "$JOBS"
  # Random order, every test twice: a test that leans on state shared
  # with another process fails here instead of on scheduling luck.
  (cd build && ctest --output-on-failure -j "$JOBS" --schedule-random \
    --repeat until-fail:2)

  echo "=== tier-1: examples ==="
  for ex in phr_search patient_matching sealed_documents; do
    echo "--- $ex ---"
    ./build/examples/"$ex" ||
      { echo "example $ex exited with status $?"; exit 1; }
  done

  echo "=== bench smoke: MSM engine comparison + JSON artifact ==="
  ./build/bench/bench_msm --smoke --json=build/BENCH_msm.json
  [[ -s build/BENCH_msm.json ]] ||
    { echo "build/BENCH_msm.json missing/empty"; exit 1; }
  ./build/bench/fig8b_encrypt --smoke >/dev/null

  echo "=== bench smoke: cross-scheme serving comparison + JSON artifact ==="
  ./build/bench/bench_schemes --smoke --json=build/BENCH_schemes.json
  [[ -s build/BENCH_schemes.json ]] ||
    { echo "build/BENCH_schemes.json missing/empty"; exit 1; }

  echo "=== bench smoke: pairing kernel / SIMD engines + JSON artifact ==="
  ./build/bench/bench_pairing --smoke --json=build/BENCH_pairing.json
  [[ -s build/BENCH_pairing.json ]] ||
    { echo "build/BENCH_pairing.json missing/empty"; exit 1; }

  echo "=== bench smoke: verdict-cache speedup + equivalence + JSON artifact ==="
  ./build/bench/bench_cache --smoke --json=build/BENCH_cache.json
  [[ -s build/BENCH_cache.json ]] ||
    { echo "build/BENCH_cache.json missing/empty"; exit 1; }

  echo "=== bench smoke: authorization overhead + served-decode digest check ==="
  ./build/bench/ablation_auth_overhead ||
    { echo "ablation_auth_overhead exited with status $?"; exit 1; }
fi

if [[ $STAGE == all || $STAGE == store ]]; then
  echo "=== store: ASan storage-engine tests + crash recovery + bench ==="
  configure build-asan -DAPKS_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$JOBS" \
    --target store_test store_recovery_test bench_store
  for t in store_test store_recovery_test; do
    echo "--- $t (ASan) ---"
    ./build-asan/tests/"$t"
  done
  # A sanitized smoke run: its artifact stays in the build tree. The
  # committed BENCH_store.json comes from a Release, non-smoke run.
  ./build-asan/bench/bench_store --smoke --json=build-asan/BENCH_store.json
  [[ -s build-asan/BENCH_store.json ]] ||
    { echo "build-asan/BENCH_store.json missing/empty"; exit 1; }
fi

if [[ $STAGE == all || $STAGE == tsan ]]; then
  echo "=== TSan: cloud server / search engine / work pool / store tests ==="
  configure build-tsan -DAPKS_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$JOBS" \
    --target cloud_test policy_test integration_test search_engine_test \
    bounded_lru_test work_pool_test store_test store_recovery_test
  for t in cloud_test policy_test integration_test search_engine_test \
      bounded_lru_test work_pool_test store_test store_recovery_test; do
    echo "--- $t (TSan) ---"
    ./build-tsan/tests/"$t"
  done
fi

if [[ $STAGE == all || $STAGE == ubsan ]]; then
  echo "=== UBSan: scheme backends (mrqed + proxy ingest + type erasure) ==="
  configure build-ubsan -DAPKS_SANITIZE=undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-ubsan -j "$JOBS" \
    --target mrqed_test property_mrqed_test backend_test integration_test
  for t in mrqed_test property_mrqed_test backend_test integration_test; do
    echo "--- $t (UBSan) ---"
    ./build-ubsan/tests/"$t"
  done
fi
if [[ $STAGE == all || $STAGE == pairing ]]; then
  echo "=== pairing: UBSan multi-pairing, SIMD lane engines, prepared search and its heap budget, batched point decode, IBS verify and serving decode (forced on/off, AVX2) ==="
  configure build-ubsan -DAPKS_SANITIZE=undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-ubsan -j "$JOBS" --target pairing_test \
    multi_pairing_test apks_test memory_budget_test curve_test \
    serialize_test fuzz_test ibs_test authority_test backend_test \
    bench_pairing
  for t in pairing_test multi_pairing_test apks_test memory_budget_test \
      curve_test serialize_test fuzz_test ibs_test authority_test \
      backend_test; do
    echo "--- $t (UBSan, SIMD auto) ---"
    ./build-ubsan/tests/"$t"
    echo "--- $t (UBSan, APKS_FORCE_SCALAR=1) ---"
    APKS_FORCE_SCALAR=1 ./build-ubsan/tests/"$t"
  done
  # The scan kernel under the AVX2 engine: on an AVX-512 host this is the
  # run that serves the base-class miller_step (auto picks the fused one).
  for t in multi_pairing_test apks_test memory_budget_test; do
    echo "--- $t (UBSan, APKS_SIMD=avx2) ---"
    APKS_SIMD=avx2 ./build-ubsan/tests/"$t"
  done
  ./build-ubsan/bench/bench_pairing --smoke >/dev/null
fi
if [[ $STAGE == all || $STAGE == chaos ]]; then
  echo "=== chaos: ASan fault-injection suite (fixed 100-seed schedule matrix) ==="
  configure build-asan -DAPKS_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$JOBS" \
    --target failpoint_test chaos_test bench_faults
  for t in failpoint_test chaos_test; do
    echo "--- $t (ASan) ---"
    ./build-asan/tests/"$t"
  done
  ./build-asan/bench/bench_faults --smoke --json=build-asan/BENCH_faults.json
  [[ -s build-asan/BENCH_faults.json ]] ||
    { echo "build-asan/BENCH_faults.json missing/empty"; exit 1; }
fi
if [[ $STAGE == all || $STAGE == serving ]]; then
  echo "=== serving: TSan network server/client loopback tests ==="
  configure build-tsan -DAPKS_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$JOBS" --target net_test
  echo "--- net_test (TSan) ---"
  ./build-tsan/tests/net_test

  echo "=== serving: ASan hostile-frame sweep + net chaos ==="
  configure build-asan -DAPKS_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$JOBS" --target net_test chaos_test
  echo "--- net_test (ASan, hostile frames) ---"
  ./build-asan/tests/net_test \
    --gtest_filter='*Hostile*:*Oversized*:*RawSocket*:*Mismatch*'
  echo "--- chaos_test (ASan, net chaos) ---"
  ./build-asan/tests/chaos_test --gtest_filter='ChaosTest.Net*'

  echo "=== bench smoke: serving load generator + JSON artifact ==="
  configure build
  cmake --build build -j "$JOBS" --target bench_serving
  ./build/bench/bench_serving --smoke --json=build/BENCH_serving.json
  [[ -s build/BENCH_serving.json ]] ||
    { echo "build/BENCH_serving.json missing/empty"; exit 1; }
fi
if [[ $STAGE == all || $STAGE == cluster ]]; then
  echo "=== cluster: ASan multi-node loopback suite (placement + scatter-gather) ==="
  configure build-asan -DAPKS_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$JOBS" --target cluster_test cluster_health_test
  echo "--- cluster_test (ASan) ---"
  ./build-asan/tests/cluster_test
  echo "--- cluster_test (ASan, chaos drills) ---"
  ./build-asan/tests/cluster_test --gtest_filter='*ClusterChaos*'
  echo "--- cluster_health_test (ASan, self-healing suite) ---"
  ./build-asan/tests/cluster_health_test

  echo "=== cluster: TSan self-healing suite (heartbeats + hedged reads + live rebalance) ==="
  configure build-tsan -DAPKS_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$JOBS" --target cluster_health_test
  echo "--- cluster_health_test (TSan) ---"
  ./build-tsan/tests/cluster_health_test

  echo "=== bench smoke: cluster scatter-gather + JSON artifact ==="
  configure build
  cmake --build build -j "$JOBS" --target bench_cluster
  ./build/bench/bench_cluster --smoke --json=build/BENCH_cluster.json
  [[ -s build/BENCH_cluster.json ]] ||
    { echo "build/BENCH_cluster.json missing/empty"; exit 1; }
fi
if [[ $STAGE == all || $STAGE == e2e ]]; then
  echo "=== e2e: end-to-end benchmark check (every workload, oracle-asserted) ==="
  bash e2ebench/run.sh --check --benchmark-json BENCHMARK.json
fi
echo "CI OK"
