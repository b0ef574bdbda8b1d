#!/usr/bin/env bash
# ci.sh — the full local gate, in the order a reviewer would run it:
#
#   1. default preset build + complete ctest tier-1 suite
#   2. address+UB-sanitized preset build, then fft_test, gyro_test,
#      xgyro_test, simmpi_test, fault_test, coll_test, telemetry_test,
#      events_test, checkpoint_test and campaign_test run from it (the FFT
#      and solver kernels index raw split arrays; simmpi_test drives the
#      register-only fiber switch, its ASan stack-switch annotations,
#      pooled stack reuse and the counting operator new of the
#      allocation-free message path; the fault and collective tests drive
#      the fiber runtime's kill, deadlock and schedule paths; the telemetry
#      and event tests drive the Json variant, whose moves hand string and
#      vector ownership between nodes; the checkpoint and campaign tests
#      drive the job runner's recovery loop, which catches RankFailure and
#      DeadlockError thrown out of the fiber runtime and writes and
#      restores snapshots; UBSan findings abort instead of only printing),
#      then the service_test subset that drives the request lifecycle
#      table and the service engine's emission and preemption paths:
#      Golden.*, Lifecycle.*, ServicePreemption.* and Seeds/ServiceStress.*
#   3. Release (-O3) build of xgyro_test and its Golden.* cases, fft_test
#      and gyro_test: the benchmark builds the solver at -O3, the ctest
#      suite at RelWithDebInfo, and the pinned state_hash/flux bits must
#      hold at both; at -O3 the vectorized AVX2 clones of the FFT and RK4
#      stage kernels also meet the FFT memcmp tests and the cross-ISA
#      kernel tests. The benchmark's serve_stream runs the service engine
#      at -O3 too, so service_test and campaign_test are built there and
#      their Golden.* (event log, report and job-report bytes) and
#      Planner.* cases run; its ensemble_real writes and validates
#      snapshots at -O3, so checkpoint_test is built there and its
#      Checkpoint.* (payload digest, corruption, format-version refusal,
#      schedule-independent manifest bytes) and CheckpointRoundTrip.* cases
#      run. The benchmark's fig2_model runs the fiber runtime at -O3 as
#      well, so simmpi_test, fault_test and coll_test are built there and
#      their Deadlock.*, Watchdog.* and SchedulePerturbation.* cases run
#      (stall detection by idle workers, and bit-identical results under
#      20 schedule seeds); xgyro_test's SchedulePerturbation.* runs the
#      Fig. 2 model pair under the same seeds
#   4. end-to-end determinism check (identical-seed runs bitwise equal)
#   5. example output check (the job-driving examples' stdout and exit
#      codes equal the recorded ones under tests/data/examples)
#   6. telemetry artifact smoke (trace/report/metrics export + validation)
#   7. docs consistency (USER_GUIDE flags vs --help both ways; every guide
#      command runs; documented CLI error paths behave as documented)
#   8. benchmark baseline smoke (every BENCH_*.json validates and detects
#      an injected +10% slowdown)
#   9. collective autotuner smoke (xgyro_colltune's emitted decision table
#      round-trips: write -> load -> selector resolves every swept cell to
#      the measured winner)
#  10. campaign service smoke (a short arrival stream through xgyro_serve:
#      admission, batching, placement, and the exit-0 convention — then the
#      same stream down the production path: perfmodel fast path with a
#      full DES audit, EASY backfilling, and adaptive windows)
#  11. service observability smoke (xgyro_serve with the streamed event
#      log, snapshots and an SLO, replayed through xgyro_servemon:
#      validation, sketch-vs-exact cross-check, trace export, event-log
#      determinism, and the aborted-run partial-log guarantee)
#
# Steps 4–11 are also registered with ctest (check_determinism_script,
# examples_stdout_check, trace_export_smoke, docs_consistency_check,
# bench_baseline_smoke, colltune_smoke, service_smoke, servemon_smoke);
# they rerun here standalone so a failure prints its own transcript even
# when ctest is skipped.
set -euo pipefail
cd "$(dirname "$0")"

JOBS=$(nproc 2>/dev/null || echo 4)

echo "=== [1/11] default build + ctest ==="
cmake --preset default
cmake --build --preset default -j "$JOBS"
ctest --preset default

echo "=== [2/11] sanitized build + kernel, fiber runtime, telemetry, job-runner and service-lifecycle tests ==="
cmake --preset sanitize
cmake --build --preset sanitize -j "$JOBS"
for t in fft_test gyro_test xgyro_test simmpi_test fault_test coll_test \
    telemetry_test events_test checkpoint_test campaign_test; do
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    "./build-sanitize/tests/$t" --gtest_brief=1
done
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ./build-sanitize/tests/service_test --gtest_brief=1 \
  --gtest_filter='Golden.*:Lifecycle.*:ServicePreemption.*:Seeds/ServiceStress.*'

echo "=== [3/11] Release (-O3) build + solver and service goldens, FFT, kernel, checkpoint and fiber-runtime tests ==="
cmake --preset release
cmake --build --preset release -j "$JOBS" --target xgyro_test fft_test gyro_test \
  service_test campaign_test checkpoint_test simmpi_test fault_test coll_test
./build-release/tests/xgyro_test --gtest_filter='Golden.*:SchedulePerturbation.*' \
  --gtest_brief=1
./build-release/tests/fft_test --gtest_brief=1
./build-release/tests/gyro_test --gtest_brief=1
for t in service_test campaign_test; do
  "./build-release/tests/$t" --gtest_filter='Golden.*:Planner.*' --gtest_brief=1
done
./build-release/tests/checkpoint_test \
  --gtest_filter='Checkpoint.*:CheckpointRoundTrip.*' --gtest_brief=1
for t in simmpi_test fault_test coll_test; do
  "./build-release/tests/$t" \
    --gtest_filter='Deadlock.*:Watchdog.*:SchedulePerturbation.*' --gtest_brief=1
done

echo "=== [4/11] determinism check ==="
bash scripts/check_determinism.sh build

echo "=== [5/11] example output check ==="
bash scripts/examples_stdout_check.sh build

echo "=== [6/11] telemetry trace-export smoke ==="
bash scripts/trace_smoke.sh build

echo "=== [7/11] docs consistency check ==="
bash scripts/docs_check.sh build

echo "=== [8/11] bench baseline smoke ==="
./build/examples/xgyro_bench_check --smoke .

echo "=== [9/11] collective autotuner smoke ==="
./build/examples/xgyro_colltune --smoke --out build/colltune_smoke.coll_table.json

echo "=== [10/11] campaign service smoke ==="
./build/examples/xgyro_serve --gen "seed=3;n=6;rate=4;tenants=2;sigs=2" \
  --nodes 2 --ranks-per-node 4 --window 0.5
# The production-stream path: modeled fast path with every job audited
# (audit-frac 1 keeps the smoke bit-identical to the DES while still
# exercising the divergence gate), backfilling placement, and adaptive
# windows. Exit 2 would flag a tripped audit gate.
./build/examples/xgyro_serve --gen "seed=3;n=6;rate=4;tenants=2;sigs=2" \
  --nodes 2 --ranks-per-node 4 --window 0.5 \
  --fast-path --audit-frac 1.0 --backfill --window-auto

echo "=== [11/11] service observability smoke ==="
bash scripts/servemon_smoke.sh build/examples

echo "ci.sh: all gates passed"
