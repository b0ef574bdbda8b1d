#!/usr/bin/env bash
# docs_check.sh BUILD_DIR
#
# Keeps docs/USER_GUIDE.md and the binaries consistent, both ways:
#
#   1. Flag parity: every --flag printed by `xgyro_cli --help` must appear
#      in the guide's marked reference block, and every --flag in the block
#      must exist in --help (same for xgyro_report's usage text,
#      xgyro_bench_check --help, xgyro_colltune --help, xgyro_serve --help,
#      and xgyro_servemon --help).
#   2. Every `sh`-tagged fenced command block in the guide parses
#      (bash -n) and — unless its first line marks it as a build step —
#      executes successfully, in order, in a scratch directory with the
#      built binaries on PATH and examples/inputs copied in.
#   3. CLI error paths: duplicate flags, malformed numbers, and conflicting
#      combinations exit 1 with a single-line diagnostic; --help exits 0;
#      an unrecovered rank kill without --checkpoint-dir exits 2 with an
#      abort report whose reason and detail line both say recovery was not
#      enabled; an unrecovered hang exits 2 naming the hung rank, with
#      the deadlock report of every blocked rank;
#      xgyro_serve additionally exits 2 (not 1) when admitted requests
#      fail, per its documented 0/1/2 convention, and xgyro_servemon
#      exits 1 on missing/corrupt logs and bad SLO grammar.
#
# Registered with ctest as `docs_consistency_check` and run as gate 5 of
# ci.sh. Run from the repository root.
set -euo pipefail

BUILD_DIR=${1:-build}
GUIDE=docs/USER_GUIDE.md
CLI="$BUILD_DIR/examples/xgyro_cli"
REPORT="$BUILD_DIR/examples/xgyro_report"
BENCH_CHECK="$BUILD_DIR/examples/xgyro_bench_check"
COLLTUNE="$BUILD_DIR/examples/xgyro_colltune"
SERVE="$BUILD_DIR/examples/xgyro_serve"
SERVEMON="$BUILD_DIR/examples/xgyro_servemon"
for f in "$GUIDE" "$CLI" "$REPORT" "$BENCH_CHECK" "$COLLTUNE" "$SERVE" \
         "$SERVEMON"; do
  if [[ ! -e "$f" ]]; then
    echo "docs_check: missing $f" >&2
    exit 1
  fi
done

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
fail() { echo "docs_check: $*" >&2; exit 1; }

extract_flags() {  # stdin -> sorted unique --flags
  grep -oE -- '--[a-z][a-z-]*' | sort -u
}

marker_block() {  # $1 = marker name -> lines between begin/end markers
  awk "/<!-- $1:begin -->/{f=1;next} /<!-- $1:end -->/{f=0} f" "$GUIDE"
}

# --- 1. flag parity, both directions -------------------------------------

"$CLI" --help > "$WORK/cli.help"
extract_flags < "$WORK/cli.help" > "$WORK/cli.help.flags"
marker_block xgyro_cli-flags | extract_flags > "$WORK/cli.guide.flags"
if ! diff -u "$WORK/cli.help.flags" "$WORK/cli.guide.flags" > "$WORK/cli.diff"; then
  cat "$WORK/cli.diff" >&2
  fail "xgyro_cli --help and $GUIDE disagree on the flag set (left: --help, right: guide)"
fi

"$REPORT" > "$WORK/report.help" 2>&1 || true   # usage text, nonzero exit
extract_flags < "$WORK/report.help" > "$WORK/report.help.flags"
marker_block xgyro_report-flags | extract_flags > "$WORK/report.guide.flags"
if ! diff -u "$WORK/report.help.flags" "$WORK/report.guide.flags" > "$WORK/report.diff"; then
  cat "$WORK/report.diff" >&2
  fail "xgyro_report usage and $GUIDE disagree on the flag set"
fi

"$BENCH_CHECK" --help > "$WORK/bench_check.help"
extract_flags < "$WORK/bench_check.help" > "$WORK/bench_check.help.flags"
marker_block xgyro_bench_check-flags | extract_flags \
  > "$WORK/bench_check.guide.flags"
if ! diff -u "$WORK/bench_check.help.flags" "$WORK/bench_check.guide.flags" \
    > "$WORK/bench_check.diff"; then
  cat "$WORK/bench_check.diff" >&2
  fail "xgyro_bench_check --help and $GUIDE disagree on the flag set"
fi

"$COLLTUNE" --help > "$WORK/colltune.help"
extract_flags < "$WORK/colltune.help" > "$WORK/colltune.help.flags"
marker_block xgyro_colltune-flags | extract_flags \
  > "$WORK/colltune.guide.flags"
if ! diff -u "$WORK/colltune.help.flags" "$WORK/colltune.guide.flags" \
    > "$WORK/colltune.diff"; then
  cat "$WORK/colltune.diff" >&2
  fail "xgyro_colltune --help and $GUIDE disagree on the flag set"
fi

"$SERVE" --help > "$WORK/serve.help"
extract_flags < "$WORK/serve.help" > "$WORK/serve.help.flags"
marker_block xgyro_serve-flags | extract_flags > "$WORK/serve.guide.flags"
if ! diff -u "$WORK/serve.help.flags" "$WORK/serve.guide.flags" \
    > "$WORK/serve.diff"; then
  cat "$WORK/serve.diff" >&2
  fail "xgyro_serve --help and $GUIDE disagree on the flag set"
fi

"$SERVEMON" --help > "$WORK/servemon.help"
extract_flags < "$WORK/servemon.help" > "$WORK/servemon.help.flags"
marker_block xgyro_servemon-flags | extract_flags \
  > "$WORK/servemon.guide.flags"
if ! diff -u "$WORK/servemon.help.flags" "$WORK/servemon.guide.flags" \
    > "$WORK/servemon.diff"; then
  cat "$WORK/servemon.diff" >&2
  fail "xgyro_servemon --help and $GUIDE disagree on the flag set"
fi

# --- 2. every sh fence parses; non-build fences execute -------------------

SCRATCH="$WORK/scratch"
mkdir -p "$SCRATCH/examples"
cp -r examples/inputs "$SCRATCH/examples/inputs"
BIN_PATH="$(cd "$BUILD_DIR" && pwd)/examples:$(cd "$BUILD_DIR" && pwd)/bench"

awk '/^```sh$/{f=1;n++;next} /^```$/{f=0} f{print n "\t" $0}' "$GUIDE" \
  > "$WORK/fences.tsv"
N_FENCES=$(cut -f1 "$WORK/fences.tsv" | sort -u | wc -l)
[[ "$N_FENCES" -ge 8 ]] || fail "expected >= 8 sh fences in $GUIDE, found $N_FENCES"

RUN_SCRIPT="$WORK/guide_commands.sh"
{
  echo "set -euo pipefail"
  echo "cd '$SCRATCH'"
  echo "export PATH='$BIN_PATH':\$PATH"
} > "$RUN_SCRIPT"
for i in $(cut -f1 "$WORK/fences.tsv" | sort -un); do
  FENCE="$WORK/fence.$i"
  awk -F'\t' -v i="$i" '$1 == i {sub(/^[0-9]+\t/, ""); print}' \
    "$WORK/fences.tsv" > "$FENCE"
  bash -n "$FENCE" || fail "sh fence #$i in $GUIDE does not parse"
  if head -1 "$FENCE" | grep -q "build step"; then
    continue  # parse-checked only; CI builds before running this script
  fi
  cat "$FENCE" >> "$RUN_SCRIPT"
done
bash "$RUN_SCRIPT" > "$WORK/guide.out" 2>&1 \
  || { cat "$WORK/guide.out" >&2; fail "a guide command failed (transcript above)"; }

# --- 3. documented error paths -------------------------------------------

expect_error() {  # $1 = description, rest = args; wants exit 1 + one stderr line
  local desc=$1; shift
  local rc=0
  "$CLI" "$@" > "$WORK/err.out" 2> "$WORK/err.err" || rc=$?
  [[ "$rc" -eq 1 ]] || fail "$desc: expected exit 1, got $rc"
  [[ "$(wc -l < "$WORK/err.err")" -eq 1 ]] \
    || { cat "$WORK/err.err" >&2; fail "$desc: expected a single-line diagnostic"; }
  grep -q "^xgyro_cli: " "$WORK/err.err" || fail "$desc: diagnostic not prefixed"
}

expect_error "duplicate flag"        --input x --ranks 2 --ranks 4
expect_error "malformed integer"     --input x --ranks abc
expect_error "malformed trailing"    --input x --ranks 4x
expect_error "input+ensemble"        --input x --ensemble y
expect_error "resume w/o ckpt dir"   --input x --resume
expect_error "ckpt in model mode"    --input x --checkpoint-dir d --mode model
expect_error "unknown flag"          --input x --bogus
expect_error "bad intervals"         --input x --intervals 0
expect_error "tol w/o perfmodel"     --input x --perfmodel-tol 3.0
expect_error "tol below one"         --input x --perfmodel-check --perfmodel-tol 0.5
expect_error "malformed tol"         --input x --perfmodel-check --perfmodel-tol abc
expect_error "unknown selector"      --input x --coll-select quantum
expect_error "select+table"          --input x --coll-select legacy --coll-table t.json

"$CLI" --help > /dev/null || fail "--help must exit 0"

# Exit 2 is an unrecovered fault: without --checkpoint-dir recovery is off,
# so the first kill aborts the job and the report says why.
rc=0
"$CLI" --input examples/inputs/small.cgyro --ranks 4 \
  --faults "seed=1;kill=1@0.0001" > /dev/null 2> "$WORK/kill.err" || rc=$?
[[ "$rc" -eq 2 ]] || fail "unrecovered kill: expected exit 2, got $rc"
grep -q "^xgyro_cli: job aborted (rank_failure)$" "$WORK/kill.err" \
  || { cat "$WORK/kill.err" >&2; fail "unrecovered kill: no abort report"; }
grep -q "^  reason : recovery not enabled (no --checkpoint-dir)$" \
  "$WORK/kill.err" \
  || { cat "$WORK/kill.err" >&2; fail "unrecovered kill: wrong reason"; }
grep -q "^  detail : .* — recovery not enabled (no --checkpoint-dir) after 0 successful recoveries$" \
  "$WORK/kill.err" \
  || { cat "$WORK/kill.err" >&2; fail "unrecovered kill: detail contradicts reason"; }
! grep -q "budget exhausted" "$WORK/kill.err" \
  || { cat "$WORK/kill.err" >&2; fail "unrecovered kill: no budget was spent"; }

# A hung rank stalls the schedule: the abort ends with the runtime's
# report, one line per blocked rank.
rc=0
"$CLI" --input examples/inputs/small.cgyro --ranks 4 \
  --faults "seed=1;hang=1@0.0001" > /dev/null 2> "$WORK/hang.err" || rc=$?
[[ "$rc" -eq 2 ]] || fail "unrecovered hang: expected exit 2, got $rc"
grep -q "^xgyro_cli: job aborted (deadlock)$" "$WORK/hang.err" \
  || { cat "$WORK/hang.err" >&2; fail "unrecovered hang: no abort report"; }
grep -q "^  rank   : 1$" "$WORK/hang.err" \
  || { cat "$WORK/hang.err" >&2; fail "unrecovered hang: abort does not name the hung rank 1"; }
grep -q "^simmpi: virtual schedule is stuck — 4 rank(s) blocked" \
  "$WORK/hang.err" \
  || { cat "$WORK/hang.err" >&2; fail "unrecovered hang: no deadlock report"; }
[[ "$(grep -c "^  rank [0-9]*: phase" "$WORK/hang.err")" -eq 4 ]] \
  || { cat "$WORK/hang.err" >&2; fail "unrecovered hang: not every blocked rank reported"; }

expect_serve_error() {  # $1 = description, rest = args; wants exit 1 + one line
  local desc=$1; shift
  local rc=0
  "$SERVE" "$@" > "$WORK/serve_err.out" 2> "$WORK/serve_err.err" || rc=$?
  [[ "$rc" -eq 1 ]] || fail "xgyro_serve $desc: expected exit 1, got $rc"
  [[ "$(wc -l < "$WORK/serve_err.err")" -eq 1 ]] \
    || { cat "$WORK/serve_err.err" >&2
         fail "xgyro_serve $desc: expected a single-line diagnostic"; }
  grep -q "^xgyro_serve: " "$WORK/serve_err.err" \
    || fail "xgyro_serve $desc: diagnostic not prefixed"
}

expect_serve_error "missing --gen"      --nodes 2
expect_serve_error "duplicate flag"     --gen "n=2" --nodes 2 --nodes 4
expect_serve_error "malformed integer"  --gen "n=2" --nodes abc
expect_serve_error "malformed number"   --gen "n=2" --window 1.5x
expect_serve_error "unknown flag"       --gen "n=2" --bogus
expect_serve_error "bad mode"           --gen "n=2" --mode fast
expect_serve_error "bad spec key"       --gen "banana=1"
expect_serve_error "bad spec value"     --gen "kills=2.0"
expect_serve_error "ckpt in model mode" --gen "n=2" --mode model --checkpoint-dir d

"$SERVE" --help > /dev/null || fail "xgyro_serve --help must exit 0"

# Exit 2 is reserved for admitted-but-failed requests: every request carries
# a kill on a single-node cluster, so no job can recover.
rc=0
"$SERVE" --gen "seed=1;n=2;rate=5;kills=1" --nodes 1 --ranks-per-node 2 \
  --checkpoint-dir "$WORK/serve_ckpt" > /dev/null 2> "$WORK/serve2.err" || rc=$?
[[ "$rc" -eq 2 ]] || fail "xgyro_serve failed-requests path: expected exit 2, got $rc"
grep -q "^xgyro_serve: " "$WORK/serve2.err" \
  || fail "xgyro_serve failed-requests path: diagnostic not prefixed"

# Observability flags need the event sink; SLO/metrics grammar fails fast.
expect_serve_error "slo w/o events"       --gen "n=2" --slo "wait=10"
expect_serve_error "metrics w/o events"   --gen "n=2" --metrics-every 1
expect_serve_error "bad slo grammar"      --gen "n=2" \
  --events-out "$WORK/ev.jsonl" --slo "banana=1"
expect_serve_error "negative metrics"     --gen "n=2" \
  --events-out "$WORK/ev.jsonl" --metrics-every -1

# Production-stream flags: the audit knobs bind to --fast-path, the
# adaptive window needs a window to adapt.
expect_serve_error "audit-frac w/o fast-path" --gen "n=2" --audit-frac 0.5
expect_serve_error "audit-frac above one"     --gen "n=2" \
  --fast-path --audit-frac 1.5
expect_serve_error "negative audit-frac"      --gen "n=2" \
  --fast-path --audit-frac -0.1
expect_serve_error "negative audit-seed"      --gen "n=2" \
  --fast-path --audit-seed -1
expect_serve_error "window-auto w/o batching" --gen "n=2" \
  --no-batching --window-auto
expect_serve_error "window-auto w/o window"   --gen "n=2" \
  --window 0 --window-auto

expect_servemon_error() {  # $1 = description, rest = args; wants exit 1 + one line
  local desc=$1; shift
  local rc=0
  "$SERVEMON" "$@" > "$WORK/mon_err.out" 2> "$WORK/mon_err.err" || rc=$?
  [[ "$rc" -eq 1 ]] || fail "xgyro_servemon $desc: expected exit 1, got $rc"
  [[ "$(wc -l < "$WORK/mon_err.err")" -eq 1 ]] \
    || { cat "$WORK/mon_err.err" >&2
         fail "xgyro_servemon $desc: expected a single-line diagnostic"; }
  grep -q "^xgyro_servemon: " "$WORK/mon_err.err" \
    || fail "xgyro_servemon $desc: diagnostic not prefixed"
}

printf '{"not":"an event log"}\n' > "$WORK/bad.events.jsonl"
expect_servemon_error "missing --events"  --summary
expect_servemon_error "duplicate flag"    --events a --events b
expect_servemon_error "unreadable log"    --events "$WORK/nope.jsonl"
expect_servemon_error "invalid log"       --events "$WORK/bad.events.jsonl"
expect_servemon_error "bad window"        --events a --window -1
expect_servemon_error "bad slo grammar"   --events a --slo "wait=-5"
expect_servemon_error "unknown flag"      --events a --bogus

"$SERVEMON" --help > /dev/null || fail "xgyro_servemon --help must exit 0"

echo "docs_check: $N_FENCES guide fences and all six flag references verified"
