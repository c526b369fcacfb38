#!/usr/bin/env bash
# ThreadSanitizer smoke test for the concurrent query paths.
#
# Configures the tsan preset (build-tsan/, LOOM_SANITIZE=thread), builds only
# the concurrency-sensitive test binaries, and runs them with
# halt_on_error so any data race fails fast. This covers:
#
#   loom_concurrency_test     queries (serial and morsel-parallel) racing
#                             live ingest, block recycling, and retention;
#                             four interleaved sources sealing chunks and
#                             writing ts markers while queries run
#   loom_parallel_query_test  the pool-backed executor: RunOrdered emission,
#                             worker trace absorption, pinned-floor splits
#   loom_engine_test          the differential suite, whose _threads4 and
#                             _threads4_archived cases run every operator in
#                             parallel across both tiers
#   retention_test            query threads pinning retention floors while
#                             the flusher advances and applies held retention
#   loom_ingest_pipeline_test the write path: readers racing chunk seals on
#                             the ingest thread, with and without retention
#   tiering_test              the background demoter advancing the retention
#                             barrier and catalog under live cross-tier queries
#   standing_query_test       seal-path evaluation publishing window/alert
#                             events to subscriptions polled from other threads
#   net_test                  the TCP front door: REG/SUB streaming and
#                             concurrent /metrics scrapes against live ingest
#   daemon_test               the per-source byte rings (producer and ingest
#                             thread indexes, wrap markers, release after
#                             PushBatch) and the ingest thread's park/wake
#
# Wired as a ctest (tsan_smoke) in the default build so `ctest` exercises it;
# run manually from anywhere:
#   tools/run_tsan_smoke.sh

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-tsan"

cmake --preset tsan -S "$repo" >/dev/null
cmake --build "$build" --target loom_concurrency_test loom_parallel_query_test loom_engine_test \
  retention_test loom_ingest_pipeline_test tiering_test \
  standing_query_test net_test daemon_test -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"
"$build/tests/loom_concurrency_test"
"$build/tests/loom_parallel_query_test"
"$build/tests/loom_engine_test"
"$build/tests/retention_test"
"$build/tests/loom_ingest_pipeline_test"
"$build/tests/tiering_test"
"$build/tests/standing_query_test"
"$build/tests/net_test"
"$build/tests/daemon_test"
echo "tsan smoke: OK"
