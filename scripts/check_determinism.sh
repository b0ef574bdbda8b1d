#!/usr/bin/env bash
# check_determinism.sh BUILD_DIR
#
# End-to-end determinism check for the simulated runtime: run the same
# fault-injected ensemble job twice through xgyro_cli with an identical
# seed and require bitwise-identical stdout, timing logs and Chrome trace
# files (--trace-out: the row order of the collective trace and spans
# must not depend on how the worker threads interleaved). Any
# nondeterminism in the schedule, the fault layer, or the accounting
# shows up as a diff and fails the check (registered with ctest as
# `check_determinism_script`).
set -euo pipefail

BUILD_DIR=${1:-build}
CLI="$BUILD_DIR/examples/xgyro_cli"
if [[ ! -x "$CLI" ]]; then
  echo "check_determinism: missing binary $CLI" >&2
  exit 1
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

FAULTS="seed=7;straggler=1x1.5;jitter=1x0.25;delay=0.2x2e-5"
run() {
  # The "... written to <path>" lines name the per-run temp files; drop
  # them so the diff sees only schedule/accounting output.
  "$CLI" --ensemble examples/inputs/input.xgyro \
         --ranks-per-sim 2 --intervals 1 \
         --faults "$FAULTS" \
         --timing-out "$WORK/$1.timing" \
         --trace-out "$WORK/$1.trace.json" \
    | grep -v ' written to ' > "$WORK/$1.stdout"
}

run a
run b

fail=0
if ! diff -u "$WORK/a.stdout" "$WORK/b.stdout"; then
  echo "check_determinism: stdout differs between identical-seed runs" >&2
  fail=1
fi
if ! diff -u "$WORK/a.timing" "$WORK/b.timing"; then
  echo "check_determinism: timing log differs between identical-seed runs" >&2
  fail=1
fi

if ! cmp "$WORK/a.trace.json" "$WORK/b.trace.json"; then
  echo "check_determinism: trace file differs between identical-seed runs" >&2
  fail=1
fi

# The fault layer must actually have injected something, or the check
# proves nothing about fault-path determinism.
if ! grep -q "fault injection:" "$WORK/a.stdout"; then
  echo "check_determinism: no fault-injection summary in output" >&2
  fail=1
fi

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "check_determinism: identical-seed runs are bitwise identical"
