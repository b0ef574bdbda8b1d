#!/usr/bin/env python3
"""Self-tests of the host-cost benchmark.

    python3 perfbench/tests/selftest.py [--workload W ...]

Checks, from the root of a checkout:
  * BENCHMARK.json has the contract's shape, and predictions.json covers
    every per-layer metric it lists;
  * each workload, run briefly, passes its output checks and prints exactly
    the end-to-end metrics (untraced) or the per-layer metrics (traced);
  * each workload, run against a deliberately perturbed reference (one
    flipped bit in the expected state_hash, virtual makespan or
    ServiceResult JSON), reports failed ops — so the checks really fire;
  * in a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero without printing a result.
Exit status 0 when every check passes.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PKG = os.path.dirname(HERE)
ROOT = os.path.dirname(PKG)

failures = []


def check(cond, what):
    print("%s: %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        failures.append(what)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def run(bench, workload, trace, perturb=False, cwd=ROOT):
    cmd = bench["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", str(trace)]
    if perturb:
        cmd.append("--perturb")
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    return done.returncode, last_json(done.stdout), done


def check_contract(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(len(names) == len(set(names)), "metric names are unique")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in bench["end_to_end"]), "setup_s is an end-to-end metric")
    check(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]), "bounds in (0, 0.25]")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"]),
          "every workload has a one-line why")
    with open(os.path.join(PKG, "predictions.json")) as f:
        predictions = json.load(f)
    layer_names = {m["name"] for m in bench["per_layer"]}
    check(set(predictions["layers"]) == layer_names,
          "predictions.json covers exactly the per-layer metrics")
    check(set(predictions["workloads"]) == {w["name"] for w in bench["workloads"]},
          "predictions.json covers exactly the workloads")


def check_workload(bench, workload):
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    code, res, _ = run(bench, workload, 0)
    check(code == 0 and res is not None, "%s: untraced run exits 0 with a result" % workload)
    if res is not None:
        check(set(res) == {"correct", "attempted", "failed", "metrics"},
              "%s: result has exactly the contract keys" % workload)
        check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
              "%s: every op passes its check (fail_frac = 0)" % workload)
        check(set(res["metrics"]) == e2e, "%s: prints every end-to-end metric" % workload)
        check(all(v["value"] != 0 for v in res["metrics"].values()),
              "%s: no end-to-end metric reads 0" % workload)
    code, res, _ = run(bench, workload, 1)
    check(code == 0 and res is not None, "%s: traced run exits 0 with a result" % workload)
    if res is not None:
        check(res["correct"] and res["failed"] == 0, "%s: traced ops pass their check" % workload)
        check(set(res["metrics"]) == layers, "%s: prints every per-layer metric" % workload)
    code, res, _ = run(bench, workload, 0, perturb=True)
    check(code == 0 and res is not None and res["failed"] > 0 and not res["correct"],
          "%s: a perturbed reference makes ops fail (fail_frac > 0)" % workload)


def check_bare_directory(bench):
    bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    code, res, _ = run(bench, bench["workloads"][0]["name"], 0, cwd=bare)
    check(code != 0 and res is None,
          "without the library sources the command fails without a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", help="workload to test (default: all)")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_contract(bench)
    for w in args.workload or [w["name"] for w in bench["workloads"]]:
        check_workload(bench, w)
    check_bare_directory(bench)
    print("\nselftest: %s" % ("PASS" if not failures else "FAIL (%d)" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
