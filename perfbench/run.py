#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a checkout.  The build goes to .bench_build/ (the
first run configures and builds the library; later runs rebuild
incrementally).  The last line of standard output is the result object;
see perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def commit():
    """The checked-out commit, read from .git when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the library sources (CMakeLists.txt, src/) are missing; "
             "run from the root of a full checkout")
    BUILD.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(BUILD))  # compiler temporaries stay inside
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                  "--target", *targets])
    for step in steps:
        try:
            subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S, check=True)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
            fail(f"build failed: {error}")


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_selftest"])
        try:
            code = subprocess.run([str(BUILD / "perfbench_selftest")],
                                  timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fail(f"self-test exceeded {RUN_TIMEOUT_S} s")
        sys.exit(code)
    if not args.workload:
        parser.error("--workload is required")

    build(["perfbench"])
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(BUILD / "work"),
               "--commit", commit()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"workload {args.workload} exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last line of the workload's output is not JSON")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} differ from {sorted(RESULT_KEYS)}")
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if printed != declared_metrics(args.trace):
        fail("printed metrics differ from BENCHMARK.json")
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
