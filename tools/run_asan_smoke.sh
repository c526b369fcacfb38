#!/usr/bin/env bash
# AddressSanitizer smoke test for the ingest write path.
#
# Configures the asan preset (build-asan/, LOOM_SANITIZE=address), builds only
# the write-path test binaries, and runs them with halt_on_error so any heap
# error fails fast. This covers:
#
#   loom_ingest_pipeline_test  staged summary buffers, the chunk seal (its
#                              in-place builder reset included), and the
#                              sticky failed-seal path
#   hybridlog_test             block recycling, the one-write-per-block
#                              flush (interrupted by signals included), and
#                              close-time sync readback
#   tiering_test               demotion payload staging (spans rebuilt over a
#                              scan window), archive block decode buffers, and
#                              the crash-safe tmp/rename write protocol
#   export_test                the export gather/sort/encode path through the
#                              shared ArchiveWriter
#   standing_query_test        seal-path window accumulators, the shared
#                              chunk-rescan cache, and event queue teardown
#   daemon_test                the per-source byte rings: frames written up to
#                              the ring's end, wrap markers, and spans handed
#                              to PushBatch straight out of the ring
#   loom_engine_test           the differential suite: zone-map pointers into
#                              archive footers and the percentile stage-2
#                              bracket, hot and archived
#   index_test                 the chunk summary decoder on truncated and
#                              inconsistent frames (listed-value section
#                              included), and the builder's listed-value copy
#   readback_test              the read-only engine: its logs allocate no
#                              block slots, so a stray slot access fails here
#
# Wired as a ctest (asan_smoke) in the default build so `ctest` exercises it;
# run manually from anywhere:
#   tools/run_asan_smoke.sh

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-asan"

cmake --preset asan -S "$repo" >/dev/null
cmake --build "$build" --target loom_ingest_pipeline_test hybridlog_test \
  tiering_test export_test standing_query_test daemon_test loom_engine_test index_test \
  readback_test -j "$(nproc)"

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
"$build/tests/loom_ingest_pipeline_test"
"$build/tests/hybridlog_test"
"$build/tests/tiering_test"
"$build/tests/export_test"
"$build/tests/standing_query_test"
"$build/tests/daemon_test"
"$build/tests/loom_engine_test"
"$build/tests/index_test"
"$build/tests/readback_test"
echo "asan smoke: OK"
