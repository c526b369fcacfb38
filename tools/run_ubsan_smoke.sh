#!/usr/bin/env bash
# UndefinedBehaviorSanitizer smoke test for the kernel and query paths.
#
# Configures the ubsan preset (build-ubsan/, LOOM_SANITIZE=undefined), builds
# the kernel fuzz suite and the golden query suite, and runs them with
# halt_on_error so any UB report fails fast. This covers:
#
#   kernels_test              unaligned vector loads, the u64 signed-compare
#                             bias, NaN handling, mask tail arithmetic
#   loom_query_golden_test    the batched decode and emission, under both
#                             dispatches (the second run forces
#                             LOOM_SIMD=scalar)
#   loom_engine_test          the differential suite: the percentile bracket's
#                             rank arithmetic (local_rank - below) and the
#                             archive zone-map pointers, hot and archived
#   index_test                the chunk summary decoder's offset and length
#                             arithmetic on truncated and inconsistent frames
#
# Wired as a ctest (ubsan_smoke) in the default build; run manually:
#   tools/run_ubsan_smoke.sh

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-ubsan"

cmake --preset ubsan -S "$repo" >/dev/null
cmake --build "$build" --target kernels_test loom_query_golden_test loom_engine_test \
  index_test -j "$(nproc)"

export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
"$build/tests/kernels_test"
"$build/tests/loom_query_golden_test"
LOOM_SIMD=scalar "$build/tests/loom_query_golden_test"
"$build/tests/loom_engine_test"
"$build/tests/index_test"
echo "ubsan smoke: OK"
