#!/usr/bin/env python3
"""Host-cost benchmark entry point.

    python3 perfbench/run.py --workload fig2_model|ensemble_real|serve_stream|all \
        --seed N --seconds S --trace 0|1 [--perturb] [--out DIR]

Run from the root of a source checkout. Builds the benchmark (CMake,
Release, into .bench_build/perfbench) from the checkout's library sources,
then runs one workload. Everything the benchmark prints is passed through;
its last line is one JSON object with the keys correct, attempted, failed
and metrics. `--workload all` runs the three workloads one after another.
Exits non-zero without a result when the build fails, e.g. when the library
sources are absent.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ["fig2_model", "ensemble_real", "serve_stream"]


def build():
    """Configure once, then an incremental build; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "xgyro", "driver.hpp")):
        print("perfbench: no library sources under src/ in this checkout",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def source_digest():
    """sha256 over the library and benchmark sources: names the code measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--perturb", action="store_true",
                   help="check against a reference with one bit flipped "
                        "(self-test: every op must fail)")
    p.add_argument("--out", default=os.path.join(BUILD_ROOT, "results"),
                   help="directory for the full result record and span dump")
    args = p.parse_args()

    if not build():
        return 1
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.join(BUILD_ROOT, "tmp"), "--out", args.out,
               "--commit", git_commit(), "--source-digest", source_digest()]
        if args.perturb:
            cmd.append("--perturb")
        try:
            done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
            return 1
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
