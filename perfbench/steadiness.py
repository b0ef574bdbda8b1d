#!/usr/bin/env python3
"""Steadiness report for the host-cost benchmark.

Given several result sets of the same code, prints for each workload and
end-to-end metric the median, the quartiles, the spread (the distance
between the first and third quartile as a share of the median, quartiles as
statistics.quantiles(values, n=4) gives them) and the largest relative
deviation from the median, and flags every metric whose spread exceeds its
bound in BENCHMARK.json (setup_s is reported but not flagged). With two or
more sets it also flags a metric whose median in a later set is worse than
in the first by more than the bound. Use it to set and justify the bounds.

Collect results from files (full records written by run.py --out, or saved
stdout whose last line is the result JSON):

    python3 perfbench/steadiness.py results/*.json

or run the benchmark itself, seeds 1..N on every workload, SETS times:

    python3 perfbench/steadiness.py --run 10 [--sets 2] [--workload W ...]

Exit status 1 when any flagged metric exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_result(text, fallback_workload=None):
    """(workload, contract JSON) from a full record or a stdout capture."""
    text = text.strip()
    try:
        doc = json.loads(text)
        if isinstance(doc, dict) and "workload" in doc:
            return doc["workload"], doc
    except json.JSONDecodeError:
        pass
    lines = text.splitlines()
    workload = fallback_workload
    for line in lines:
        if line.startswith("perfbench "):
            workload = line.split()[1]
            break
    return workload, json.loads(lines[-1])


def run_set(bench, workloads, n, set_index):
    """Run seeds 1..n of every workload; returns {workload: [result, ...]}."""
    out = {}
    for w in workloads:
        for seed in range(1, n + 1):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit("run failed: %s seed %d" % (w, seed))
            _, result = parse_result(done.stdout, w)
            print("set %d %s seed %d: %s" % (set_index, w, seed, json.dumps(result)),
                  flush=True)
            out.setdefault(w, []).append(result)
    return out


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    worst = max(abs(v - med) for v in values) / med if med else float("inf")
    return med, q1, q3, (q3 - q1) / med if med else float("inf"), worst


def report(bench, sets):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    first = {}
    for si, results in enumerate(sets):
        print("\n=== result set %d ===" % (si + 1))
        print("%-14s %-18s %3s %14s %14s %14s %8s %8s %6s  %s" % (
            "workload", "metric", "n", "median", "q1", "q3", "spread",
            "worst", "bound", "verdict"))
        for w in sorted(results):
            rs = results[w]
            bad = [r for r in rs if not r.get("correct") or r.get("failed", 1)]
            if bad:
                ok = False
                print("%-14s %d of %d runs incorrect or with failed ops" % (w, len(bad), len(rs)))
            for name, spec in bounds.items():
                vals = [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
                if len(vals) < 2:
                    continue
                med, q1, q3, spread, worst = summarize(vals)
                bound = spec["bound"]
                verdict = "ok"
                if name != "setup_s" and spread > bound:
                    verdict, ok = "SPREAD OVER BOUND", False
                elif name != "setup_s" and spread > bound / 3:
                    verdict = "spread above bound/3"
                if si == 0:
                    first[(w, name)] = med
                elif (w, name) in first:
                    base = first[(w, name)]
                    worse = (med - base) / base if spec["better"] == "lower" else (base - med) / base
                    if worse > bound:
                        verdict, ok = "MEDIAN WORSE THAN SET 1 BY %.3f" % worse, False
                print("%-14s %-18s %3d %14.6g %14.6g %14.6g %8.4f %8.4f %6.3f  %s" % (
                    w, name, len(vals), med, q1, q3, spread, worst, bound, verdict))
    print("\nsteadiness: %s" % ("PASS" if ok else "FAIL"))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("files", nargs="*", help="result files (one result set)")
    p.add_argument("--run", type=int, default=0, metavar="N",
                   help="run seeds 1..N of each workload instead of reading files")
    p.add_argument("--sets", type=int, default=1, help="result sets to run (with --run)")
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    args = p.parse_args()
    bench = load_bench()
    if args.run:
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        sets = [run_set(bench, workloads, args.run, i + 1) for i in range(args.sets)]
    else:
        if not args.files:
            p.error("give result files or --run N")
        results = {}
        for path in args.files:
            with open(path) as f:
                w, r = parse_result(f.read())
            results.setdefault(w, []).append(r)
        sets = [results]
    return 0 if report(bench, sets) else 1


if __name__ == "__main__":
    sys.exit(main())
