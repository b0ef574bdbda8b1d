#!/usr/bin/env bash
# examples_stdout_check.sh BUILD_DIR
#
# Pins the output of the job-driving example programs: runs quickstart,
# ensemble_sweep, grouped_campaign, linear_growth, campaign_demo,
# resolution_convergence and resolution_convergence --smoke, and compares
# each one's stdout and exit code byte for byte with
# tests/data/examples/<run>.stdout and <run>.exit (recorded from the
# programs' hand-written rank bodies, before they moved onto
# xgyro::run_job; campaign_demo's from its run through the removed offline
# campaign executor, before it looped run_job itself). Every run is
# deterministic (virtual clock, seeded physics), so any difference is a
# change in what the program computes or prints. Registered with ctest as
# `examples_stdout_check`.
set -euo pipefail

BUILD_DIR=${1:-build}
DATA=tests/data/examples

# run name, binary path under BUILD_DIR, arguments
RUNS=(
  "quickstart examples/quickstart"
  "ensemble_sweep examples/ensemble_sweep"
  "grouped_campaign examples/grouped_campaign"
  "linear_growth examples/linear_growth"
  "campaign_demo examples/campaign_demo"
  "resolution_convergence bench/resolution_convergence"
  "resolution_convergence_smoke bench/resolution_convergence --smoke"
)

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail=0
for spec in "${RUNS[@]}"; do
  read -r name bin args <<<"$spec"
  if [[ ! -x "$BUILD_DIR/$bin" ]]; then
    echo "examples_stdout_check: missing binary $BUILD_DIR/$bin" >&2
    exit 1
  fi
  status=0
  # shellcheck disable=SC2086  # args is a word list
  "$BUILD_DIR/$bin" $args > "$WORK/$name.stdout" || status=$?
  echo "$status" > "$WORK/$name.exit"
  for ext in stdout exit; do
    if ! diff -u "$DATA/$name.$ext" "$WORK/$name.$ext"; then
      echo "examples_stdout_check: $name: $ext differs from $DATA/$name.$ext" >&2
      fail=1
    fi
  done
done

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "examples_stdout_check: ${#RUNS[@]} runs match $DATA"
