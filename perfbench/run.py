#!/usr/bin/env python3
"""Run one workload of the netcong pipeline ledger.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and with it the repository's src/) into .bench_build/ on
first use, runs the workload in its own process, and prints as its last
line one JSON object: correct, attempted, failed, and the metrics that
BENCHMARK.json lists for the mode (end_to_end with --trace 0, per_layer with
--trace 1). A per-layer metric of a layer the workload does not exercise is
reported as 0. Exits non-zero, without a result line, if the sources are
missing or the build fails; exits 1 if a correctness check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "netcong_ledger")
WORKLOAD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("netcong sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "netcong_ledger",
                   "--", "-j4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def complete(result, bench, trace):
    """Checks the binary's metrics against BENCHMARK.json and fills in the
    per-layer metrics of layers this workload does not exercise."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    extra = sorted(set(got) - names)
    if extra:
        fail(f"metrics not listed in BENCHMARK.json: {', '.join(extra)}")
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in got:
            if not trace:
                fail(f"end-to-end metric {name} was not measured")
            got[name] = {"value": 0, "unit": m["unit"]}
        if got[name]["unit"] != m["unit"]:
            fail(f"{name}: unit {got[name]['unit']} != {m['unit']}")
        metrics[name] = got[name]
    result["metrics"] = metrics
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = spec()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload}")
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {WORKLOAD_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(complete(result, bench, args.trace)))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
