#!/usr/bin/env bash
# Configure, build, and run the full test suite under
# AddressSanitizer + UndefinedBehaviorSanitizer (default) or
# ThreadSanitizer.
#
# Usage: tools/run_sanitized_tests.sh [asan|tsan] [ctest args...]
set -euo pipefail

preset="${1:-asan}"
shift || true
case "$preset" in
  asan|tsan) ;;
  *)
    echo "usage: $0 [asan|tsan] [ctest args...]" >&2
    exit 2
    ;;
esac

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$(nproc)"
ctest --preset "$preset" "$@"

# Kernel-backend rerun matrix: the main pass above runs under the
# dispatched default (widest SIMD backend this CPU supports). Re-run
# the kernel and index suites with the backend pinned to the scalar
# reference, then to AVX2, then explicitly to the dispatched best, so
# every backend gets sanitizer coverage — the scalar fallback and the
# AVX2 backend are otherwise dead code on machines with AVX-512. On a
# CPU or build without AVX2, MOCEMG_KERNEL=avx2 warns and falls back
# to auto detection. QueryBlock is the §16 query-block grid: together
# with the fp32 loop below, the blocked many-to-many scan path gets
# sanitizer coverage under MOCEMG_KERNEL={scalar,avx2,auto} x
# MOCEMG_EXACT_PRECISION={f64,f32}.
for kern in scalar avx2 auto; do
  echo "== $preset: kernel/index suites under MOCEMG_KERNEL=$kern =="
  MOCEMG_KERNEL="$kern" ctest --preset "$preset" \
    -R 'Kernel|Distance|FeatureIndex|Sharded|Snapshot|QueryBlock|KnnOracle' \
    --output-on-failure
done

# fp32 exact-tier rerun matrix: the same suites again with the
# default exact precision forced to the fp32 mirror tier, crossed
# with both kernel backends. Tests that build with explicit options
# are unaffected (options beat the env default, §15.4); tests that
# build with defaults now route their scans through the mirror +
# refine path, so the bound arithmetic, the norm gate, and the
# refine's double re-evaluation all get sanitizer coverage on the
# scalar, AVX2 and dispatched kernels.
for kern in scalar avx2 auto; do
  echo "== $preset: kernel/index suites under" \
    "MOCEMG_EXACT_PRECISION=f32 MOCEMG_KERNEL=$kern =="
  MOCEMG_EXACT_PRECISION=f32 MOCEMG_KERNEL="$kern" \
    ctest --preset "$preset" \
    -R 'Kernel|Distance|FeatureIndex|Sharded|Snapshot|QueryBlock|KnnOracle' \
    --output-on-failure
done

if [[ "$preset" == "tsan" ]]; then
  # Second pass over the parallel substrate with a forced 8-thread
  # budget: on a small machine the auto budget can resolve to one
  # worker, and tsan would then certify what was effectively a serial
  # execution. The determinism tests double as the data-race proof for
  # every parallelized stage (featurization, FCM, batch kNN/classify),
  # the fault-injected serving tests exercise concurrent clients
  # against stalls, injected failures, and deadline sheds, and the
  # sharded tests cover scatter-gather fan-out plus index swaps under
  # racing submitters.
  echo "== tsan: parallel substrate again under MOCEMG_THREADS=8 =="
  MOCEMG_THREADS=8 ctest --preset tsan -R 'Parallel|ServingFault|Sharded' \
    --output-on-failure
fi
