#!/usr/bin/env python3
"""Runs one workload of the benchmark on several seeds and reports, per metric, the
median, the quartiles and the spread (distance between the quartiles as a share of the
median), with the run context.  Uses Python's statistics.quantiles(values, n=4).

    python3 perfbench/spread.py --workload serve_mixed --runs 10 --seconds 20 \
        [--first-seed 1] [--trace 0] [--json perfbench/out/spread-serve_mixed.json]

Run from the repository root.  Bounds are read from BENCHMARK.json; a spread at or above
a third of its metric's bound is flagged.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

# A report line: "# <metric> <value> <unit> n=<samples>".
METRIC_LINE = re.compile(r"^# (\S+)\s+\S+\s+\S+\s+n=(\d+)$")


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    context = next((l for l in lines if l.startswith("# perfbench ")), "")
    samples = {m.group(1): int(m.group(2)) for m in map(METRIC_LINE.match, lines) if m}
    return json.loads(lines[-1]), context, samples


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    values = {}
    samples = {}
    flags = []
    context = ""
    for i in range(args.runs):
        seed = args.first_seed + i
        result, context, counts = run_once(args.workload, seed, seconds, args.trace)
        if not result["correct"] or result["failed"]:
            flags.append(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            samples.setdefault(name, []).append(counts.get(name, 0))
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), file=sys.stderr)
    print(context)
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        mark = ""
        if bound is not None and not spread < bound / 3:
            mark = "  <-- spread >= bound/3"
        print(f"{name:<28} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6}{mark}")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "runs": len(vals), "samples_per_run": samples[name],
                         "values": vals}
    for flag in flags:
        print("FAILED RUN", flag)
    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                       "context": context, "nproc": len(os.sched_getaffinity(0)),
                       "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
                       "metrics": summary}, f, indent=2)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
