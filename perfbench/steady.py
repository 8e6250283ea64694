#!/usr/bin/env python3
"""Steadiness of the pipeline ledger.

Run a workload N times, each with another seed, and print the median and
quartiles of each end-to-end metric with its spread (Q3 - Q1, as a share of
the median) next to the metric's bound in BENCHMARK.json:

    python3 perfbench/steady.py run --workload batch_week --runs 10 \
        --first-seed 1 --out .bench_build/steady-a.json

Compare two such result files (the second against the first): every
metric's median may be worse than the first set's by at most its bound,
every spread but setup_s's must stay within the bound, and the share of
failed operations must be identical:

    python3 perfbench/steady.py compare .bench_build/steady-a.json \
        .bench_build/steady-b.json

Both commands exit 1 when a condition is not met.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def cmd_run(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().split("\n")
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"seed {seed}: no result (exit {proc.returncode})")
            return 1
        result["seed"] = seed
        runs.append(result)
        shown = "  ".join(f"{k}={v['value']:.6g}"
                          for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}  {shown}",
              flush=True)
    doc = {"workload": args.workload, "seconds": seconds, "runs": runs}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    return report(doc, spec)


def report(doc, spec):
    ok = all(r["correct"] for r in doc["runs"])
    print(f"{doc['workload']}: {len(doc['runs'])} runs of "
          f"{doc['seconds']} s")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in doc["runs"]]
        med, q1, q3, spread = summarize(values)
        verdict = "ok"
        if m["name"] != "setup_s" and spread > m["bound"]:
            verdict, ok = "OVER BOUND", False
        elif spread > m["bound"] / 3:
            verdict = "wide (over a third of the bound)"
        print(f"  {m['name']:<14} median {med:<14.6g} q1 {q1:<14.6g} "
              f"q3 {q3:<14.6g} spread {spread:7.2%} / bound "
              f"{m['bound']:.0%}  {verdict}")
    shares = {r["failed"] / r["attempted"] for r in doc["runs"]}
    print(f"  failed share per run: {sorted(shares)}")
    return 0 if ok and len(shares) == 1 else 1


def cmd_compare(args):
    spec = load_spec()
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    if a["workload"] != b["workload"]:
        print("the two files hold different workloads")
        return 1
    ok = report(b, spec) == 0
    for m in spec["end_to_end"]:
        ma = statistics.median(r["metrics"][m["name"]]["value"]
                               for r in a["runs"])
        mb = statistics.median(r["metrics"][m["name"]]["value"]
                               for r in b["runs"])
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
        ok = ok and worse <= m["bound"]
        print(f"  {m['name']:<14} first {ma:<14.6g} second {mb:<14.6g} "
              f"worse by {worse:+7.2%} / bound {m['bound']:.0%}  {verdict}")
    share_a = {r["failed"] / r["attempted"] for r in a["runs"]}
    share_b = {r["failed"] / r["attempted"] for r in b["runs"]}
    if share_a != share_b:
        print(f"  failed shares differ: {sorted(share_a)} vs {sorted(share_b)}")
        ok = False
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description="Steadiness runs and comparisons for the pipeline ledger")
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run one workload N times")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=0,
                     help="run length (default: BENCHMARK.json run_seconds)")
    run.add_argument("--out", help="write the results as JSON here")
    cmp_ = sub.add_parser("compare", help="compare two result files")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
