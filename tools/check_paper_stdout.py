#!/usr/bin/env python3
"""Checks the paper benches' stdout against committed SHA-256 digests.

    python3 tools/check_paper_stdout.py [--build-dir build] [--jobs 2]
    python3 tools/check_paper_stdout.py --record

Runs each of the 26 figure, table, ablation and security benches from
<build-dir>/bench, each in its own temporary directory (so the BENCH_*.json
artifacts land there, not in the working tree), hashes its stdout and compares
the hash with bench/stdout_digests.json. Every simulated number a bench prints
is seeded, so its stdout is byte-identical run to run and across hosts; a
mismatch means the simulation changed. --record rewrites the digest file; only
do that when a change is meant to alter simulated output. --save-dir keeps each
bench's stdout and JSON artifacts for diffing against a parent build.

It refuses to run while any VUSION_* variable is set: those select other
programs (thread counts, for example), so their stdout is not the recorded one.
Exit status: 0 when every digest matches, 1 on a mismatch, a missing digest or
a failed bench, 2 on a usage error.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DIGESTS = REPO / "bench" / "stdout_digests.json"

# The paper suite: every bench whose stdout holds only simulated results. The
# host-throughput, fleet-throughput, snapshot round-trip and micro-primitive
# benches print wall-clock numbers and are not part of it.
PAPER_BENCHES = (
    "bench_fig3_wpf_reuse",
    "bench_fig4_coa_fusion",
    "bench_fig5_ksm_write_timing",
    "bench_fig6_vusion_read_timing",
    "bench_fig7_spec",
    "bench_fig8_parsec",
    "bench_fig9_thp_conservation",
    "bench_fig10_idle_vms",
    "bench_fig11_diverse_vms",
    "bench_fig12_apache_memory",
    "bench_table1_attack_matrix",
    "bench_table2_stream",
    "bench_table3_page_types",
    "bench_table4_postmark",
    "bench_table5_apache",
    "bench_table6_kv_throughput",
    "bench_table7_kv_latency",
    "bench_sec_sb_enforcement",
    "bench_sec_ra_enforcement",
    "bench_ablation_deferred_free",
    "bench_ablation_wse",
    "bench_ablation_pool_entropy",
    "bench_ablation_rerandomize",
    "bench_ablation_adaptive_n",
    "bench_related_memory_combining",
    "bench_summary_matrix",
)

BENCH_TIMEOUT_S = 600


def run_bench(binary, save_dir):
    """Runs one bench in a temporary directory; returns (digest, wall_s, error)."""
    with tempfile.TemporaryDirectory(prefix="paper-stdout-") as cwd:
        start = time.monotonic()
        try:
            proc = subprocess.run([str(binary)], cwd=cwd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=BENCH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, time.monotonic() - start, f"timed out after {BENCH_TIMEOUT_S} s"
        wall_s = time.monotonic() - start
        if save_dir is not None:
            (save_dir / f"{binary.name}.stdout").write_bytes(proc.stdout)
            for artifact in Path(cwd).glob("BENCH_*.json"):
                shutil.copy(artifact, save_dir / artifact.name)
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace")[-2000:]
        return None, wall_s, f"exited with {proc.returncode}\n{tail}"
    return hashlib.sha256(proc.stdout).hexdigest(), wall_s, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build", type=Path)
    parser.add_argument("--jobs", type=int, default=2,
                        help="benches run at once (each is single-threaded)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite bench/stdout_digests.json from this build")
    parser.add_argument("--save-dir", type=Path,
                        help="keep each bench's stdout (<bench>.stdout) and its "
                             "BENCH_*.json artifacts here")
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    overrides = sorted(k for k in os.environ if k.startswith("VUSION_"))
    if overrides:
        print(f"check_paper_stdout: refusing to run with {', '.join(overrides)} set",
              file=sys.stderr)
        return 2
    bench_dir = args.build_dir / "bench"
    missing = [b for b in PAPER_BENCHES if not (bench_dir / b).is_file()]
    if missing:
        print(f"check_paper_stdout: not built in {bench_dir}: {' '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.save_dir is not None:
        args.save_dir.mkdir(parents=True, exist_ok=True)
    recorded = {} if args.record else json.loads(DIGESTS.read_text())["sha256"]

    results = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = {pool.submit(run_bench, (bench_dir / b).resolve(), args.save_dir): b
                   for b in PAPER_BENCHES}
        for future in concurrent.futures.as_completed(futures):
            results[futures[future]] = future.result()

    failures = 0
    total_s = 0.0
    for bench in PAPER_BENCHES:
        digest, wall_s, error = results[bench]
        total_s += wall_s
        if error is not None:
            verdict = f"FAILED: {error}"
            failures += 1
        elif args.record:
            verdict = "recorded"
        elif bench not in recorded:
            verdict = "no recorded digest"
            failures += 1
        elif recorded[bench] != digest:
            verdict = f"MISMATCH (recorded {recorded[bench][:16]}, got {digest[:16]})"
            failures += 1
        else:
            verdict = "ok"
        print(f"{bench:34s} {wall_s:7.2f} s  {verdict}", flush=True)
    print(f"{len(PAPER_BENCHES)} benches, {total_s:.1f} s of bench wall time, "
          f"{failures} failed")
    if args.record:
        if failures:
            print("check_paper_stdout: not recording after a failed bench", file=sys.stderr)
            return 1
        book = {"sha256": {b: results[b][0] for b in PAPER_BENCHES}}
        DIGESTS.write_text(json.dumps(book, indent=2) + "\n")
        print(f"wrote {DIGESTS.relative_to(REPO)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
