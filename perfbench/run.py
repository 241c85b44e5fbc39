#!/usr/bin/env python3
"""The repository benchmark: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds perfbench/ (the simulator libraries
from src/ plus the driver) with CMake under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, runs the driver, checks the
simulated digest against digests.json, and prints the driver's report line and
then the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

    python3 perfbench/run.py --record-digests [--seeds 0-20]

re-records the digest of every workload for the given seeds (and the reserved
seed); only do that when a change is meant to alter simulated results.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SPEC = HERE.parent / "BENCHMARK.json"
WORKLOADS = ("spec_access", "scan_churn", "coa_refault")
DRIVER_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir)])
        steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench_driver",
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed: {' '.join(step)}", 3)
    return build_dir / "perfbench_driver"


def run_driver(driver, workload, seed, seconds, trace):
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out after {DRIVER_TIMEOUT_S} s", 4)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"driver exited with {proc.returncode}", 4)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_digests():
    return json.loads(DIGESTS.read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(driver, seeds):
    book = load_digests()
    for workload in WORKLOADS:
        table = book["digests"].setdefault(workload, {})
        for seed in sorted(set(seeds) | {book["reserved_seed"]}):
            report = run_driver(driver, workload, seed, 0, 0)
            if not all(it["ok"] for it in report["iterations"]):
                fail(f"{workload} seed {seed} failed: {report['iterations']}", 5)
            table[str(seed)] = report["digest"]
            print(f"{workload} seed {seed}: {report['digest']}", flush=True)
    DIGESTS.write_text(json.dumps(book, indent=2) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--seeds", default="0-20")
    args = parser.parse_args()
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 0 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds within 0..120")
    if not Path("src/CMakeLists.txt").is_file():
        fail("run from the repository root (src/CMakeLists.txt not found)", 2)

    driver = build()
    if args.record_digests:
        record(driver, parse_seeds(args.seeds))
        return

    report = run_driver(driver, args.workload, args.seed, args.seconds, args.trace)
    recorded = load_digests()["digests"].get(args.workload, {}).get(str(args.seed))
    checks = report["checks"]
    checks["digest_recorded"] = recorded is not None
    checks["digest_matches"] = recorded is None or recorded == report["digest"]
    correct = (checks["digest_matches"] and report["digests_agree"]
               and all(it["ok"] for it in report["iterations"])
               and checks.get("closure_ok", True))
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"] for m in json.loads(SPEC.read_text())[kind]}
    if set(report["metrics"]) != declared:
        fail(f"driver metrics {sorted(report['metrics'])} differ from BENCHMARK.json", 6)
    print(json.dumps(report, separators=(",", ":")))
    attempted = report["attempted"]
    # A run whose simulated outcome is wrong counts every operation as failed.
    failed = report["failed"] if correct else attempted
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))


if __name__ == "__main__":
    main()
