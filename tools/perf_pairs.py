#!/usr/bin/env python3
"""Runs two perfbench drivers in alternating pairs and compares their metrics.

    python3 tools/perf_pairs.py --base A/perfbench_driver --change B/perfbench_driver \\
        --workload spec_access --seed 1 --seconds 30 --pairs 10

Build each driver from its own checkout with perfbench/run.py, pointing
CARGO_TARGET_DIR at a separate directory per checkout (the driver lands in
$CARGO_TARGET_DIR/perfbench/perfbench_driver). Pair i runs base then change
when i is even and change then base when it is odd, so a drift of the shared
host's speed falls on both sides alike.

Every run must be correct and both drivers must print the same simulated
digest; otherwise the comparison is void and the exit status is 1. For each
metric of the run's kind (BENCHMARK.json's end-to-end set with --trace 0, the
per-layer set with --trace 1) it prints the base and change medians, the
change in percent, each side's quartile spread (interquartile range over its
median) and how many pairs the change won in the metric's better direction.
--json writes the raw runs and the summary.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SPEC = REPO / "BENCHMARK.json"
DRIVER_TIMEOUT_S = 600


def run_driver(driver, args):
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{driver} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def value(report, name):
    return report["metrics"][name]["value"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True,
                        choices=("spec_access", "scan_churn", "coa_refault"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, help="write runs and summary here")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for driver in (args.base, args.change):
        if not driver.is_file():
            parser.error(f"no driver at {driver}")

    kind = "per_layer" if args.trace else "end_to_end"
    better = {m["name"]: m["better"] for m in json.loads(SPEC.read_text())[kind]}
    runs = {"base": [], "change": []}
    problems = []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            report = run_driver(getattr(args, side), args)
            runs[side].append(report)
            ok = report["digests_agree"] and all(it["ok"] for it in report["iterations"])
            if not ok:
                problems.append(f"pair {i} {side}: iterations failed or disagreed")
        digests = {runs["base"][-1]["digest"], runs["change"][-1]["digest"]}
        first = next(iter(better))
        print(f"pair {i}: {first} base {value(runs['base'][-1], first):.6g} "
              f"change {value(runs['change'][-1], first):.6g}, "
              f"digests {'equal' if len(digests) == 1 else 'DIFFER'}", flush=True)
        if len(digests) != 1:
            problems.append(f"pair {i}: digests differ {sorted(digests)}")

    summary = {}
    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds}-s runs")
    print(f"{'metric':26s} {'base':>12s} {'change':>12s} {'delta':>8s} "
          f"{'base IQR':>9s} {'chg IQR':>8s} {'wins':>6s}")
    for name, direction in better.items():
        base = [value(r, name) for r in runs["base"] if name in r["metrics"]]
        change = [value(r, name) for r in runs["change"] if name in r["metrics"]]
        if len(base) != args.pairs or len(change) != args.pairs:
            continue
        b_med, c_med = statistics.median(base), statistics.median(change)
        q1, q3 = quartiles(base)
        c_q1, c_q3 = quartiles(change)
        delta = (c_med - b_med) / b_med * 100 if b_med else 0.0
        spread = (q3 - q1) / b_med * 100 if b_med else 0.0
        c_spread = (c_q3 - c_q1) / c_med * 100 if c_med else 0.0
        wins = sum((c < b) if direction == "lower" else (c > b)
                   for b, c in zip(base, change))
        summary[name] = {"base_median": b_med, "change_median": c_med, "delta_pct": delta,
                         "base_q1": q1, "base_q3": q3, "base_iqr_pct": spread,
                         "change_q1": c_q1, "change_q3": c_q3, "wins": wins,
                         "pairs": args.pairs, "better": direction}
        print(f"{name:26s} {b_med:12.6g} {c_med:12.6g} {delta:+7.1f}% {spread:8.1f}% "
              f"{c_spread:7.1f}% {wins:3d}/{args.pairs}")
    if args.json is not None:
        args.json.write_text(json.dumps({"args": {k: str(v) for k, v in vars(args).items()},
                                         "summary": summary, "problems": problems,
                                         "runs": runs}, indent=1) + "\n")
    for problem in problems:
        print(f"perf_pairs: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
