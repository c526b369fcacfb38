#!/usr/bin/env bash
# Smoke test of loom_cli end to end: captures a small Redis workload into a
# temporary directory, runs every post-mortem subcommand over it through the
# read-only engine, and checks that:
#
#   * every run exits 0;
#   * `sources` lists sources 1, 2 and 3;
#   * `count --source 1` equals the app-latency index's `agg --method count`;
#   * `scan` prints timestamps newest-first;
#   * numeric flags that do not parse or do not fit their field exit 1.
#
# Wired as a ctest (check_loom_cli) that passes the built binary; run
# manually from anywhere:
#   tools/check_loom_cli.sh build/tools/loom_cli

set -u

cli="${1:?usage: check_loom_cli.sh <path to loom_cli>}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
cap="$dir/cap"
fail=0

# Runs loom_cli with the given arguments; its stdout lands in $out.
run() {
  if ! out="$("$cli" "$@" 2>"$dir/stderr")"; then
    echo "FAIL: loom_cli $* exited non-zero: $(cat "$dir/stderr")"
    fail=1
  fi
}

run capture --workload redis --scale 0.002 --dir "$cap"
run sources --dir "$cap"
[ "$out" = "$(printf 'source 1\nsource 2\nsource 3')" ] ||
  { echo "FAIL: sources printed: $out"; fail=1; }
run bounds --dir "$cap"
run count --dir "$cap" --source 1
count="${out#count = }"
run agg --dir "$cap" --source 1 --extract app_latency --method count
[ "${out#count = }" = "$count" ] ||
  { echo "FAIL: count --source 1 printed $count, agg --method count $out"; fail=1; }
for method in sum min max mean pct; do
  run agg --dir "$cap" --source 1 --extract app_latency --method "$method"
done
run topk --dir "$cap" --source 2 --extract syscall_latency --k 5
run scan --dir "$cap" --source 2 --limit 50
stamps="$(printf '%s\n' "$out" | sed -n 's/^t=\([0-9]*\) .*/\1/p')"
[ "$(printf '%s\n' "$stamps" | wc -l)" -eq 50 ] &&
  [ "$stamps" = "$(printf '%s\n' "$stamps" | sort -rn)" ] ||
  { echo "FAIL: scan did not print 50 timestamps newest-first: $out"; fail=1; }

for bad in "count --source 4294967297" "agg --start abc" "agg --method pct --pct nan"; do
  # shellcheck disable=SC2086  # $bad holds several words on purpose
  "$cli" $bad --dir "$cap" >/dev/null 2>&1
  rc=$?
  [ "$rc" -eq 1 ] || { echo "FAIL: loom_cli $bad exited $rc, want 1"; fail=1; }
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "loom_cli smoke: OK"
