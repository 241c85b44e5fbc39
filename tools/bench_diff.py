#!/usr/bin/env python3
"""Diff two BENCH_*.json artifacts and fail on throughput-ratio regressions.

Usage: bench_diff.py BASELINE CANDIDATE [--regress-pct PCT] [--table NAME ...]

Compares the *ratio* tables of two schema-version-1 artifacts emitted by
bench::Reporter (see tools/check_bench_json.py for the shape): parallel scan
speedup, fleet speedup, and the headline values. Each is a ratio of two
wall-clock measurements from the same run; absolute page counts and wall
seconds are never judged. The ratios still vary with the host's core count,
its load and the run length, so the threshold is a collapse detector, not a
noise bound. A candidate cell more than --regress-pct percent below the
baseline cell is a regression (all ratio metrics here are higher-is-better); a
baseline row missing from the candidate is a coverage regression. Either exits
non-zero.

A row flagged "oversubscribed" (more threads than the host that measured it
has CPUs) on either side is printed as "skip" and never judged: its ratio
measures the host's scheduler, not the simulator.

Rows are matched by table-specific key fields:

    parallel_speedup  keyed by (engine, threads)
    fleet_speedup     keyed by (threads)
    headlines         keyed by (name)

Headline "target" fields are informational (the bench binary already prints
them); only "value" is compared. Rows present only in the candidate are
reported but never fail the diff — new engines or headlines are not
regressions.

Exit status: 0 clean, 1 regression found, 2 usage or malformed artifact.
"""

import argparse
import json
import numbers
import sys

# Ratio tables and the fields identifying a row within each. Every other
# numeric field in a row (except "target") is a higher-is-better ratio.
RATIO_TABLES = {
    "parallel_speedup": ("engine", "threads"),
    "fleet_speedup": ("threads",),
    "headlines": ("name",),
}

SKIPPED_FIELDS = {"target"}


def load_artifact(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"bench_diff: cannot read {path}: {err}")
    if not isinstance(doc, dict) or doc.get("schema_version") != 1:
        raise SystemExit(f"bench_diff: {path} is not a schema-version-1 bench artifact")
    return doc


def row_key(row, key_fields):
    return tuple(row.get(field) for field in key_fields)


def numeric_fields(row, key_fields):
    return {
        name: value
        for name, value in row.items()
        if name not in key_fields
        and name not in SKIPPED_FIELDS
        and isinstance(value, numbers.Number)
        and not isinstance(value, bool)
    }


def diff_table(name, key_fields, base_rows, cand_rows, regress_pct):
    """Returns (regressions, lines) for one table."""
    regressions = 0
    lines = []
    cand_by_key = {row_key(r, key_fields): r for r in cand_rows}
    seen = set()
    for base_row in base_rows:
        key = row_key(base_row, key_fields)
        seen.add(key)
        label = "/".join(str(part) for part in key)
        cand_row = cand_by_key.get(key)
        if cand_row is None:
            regressions += 1
            lines.append(f"REGRESS {name}[{label}]: row missing from candidate")
            continue
        if base_row.get("oversubscribed") is True or cand_row.get("oversubscribed") is True:
            lines.append(f"skip    {name}[{label}]: oversubscribed (not judged)")
            continue
        for field, base_value in numeric_fields(base_row, key_fields).items():
            cand_value = cand_row.get(field)
            if not isinstance(cand_value, numbers.Number) or isinstance(cand_value, bool):
                regressions += 1
                lines.append(f"REGRESS {name}[{label}].{field}: value missing from candidate")
                continue
            floor = base_value * (1.0 - regress_pct / 100.0)
            delta_pct = (
                (cand_value - base_value) / base_value * 100.0 if base_value else 0.0
            )
            verdict = "ok     "
            if cand_value < floor:
                regressions += 1
                verdict = "REGRESS"
            lines.append(
                f"{verdict} {name}[{label}].{field}: "
                f"{base_value:.4g} -> {cand_value:.4g} ({delta_pct:+.1f}%)"
            )
    for key in cand_by_key:
        if key not in seen:
            label = "/".join(str(part) for part in key)
            lines.append(f"new     {name}[{label}]: only in candidate (ignored)")
    return regressions, lines


def main(argv):
    parser = argparse.ArgumentParser(
        prog="bench_diff.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    parser.add_argument(
        "--regress-pct", type=float, default=10.0,
        help="allowed drop below baseline, percent (default: %(default)s)")
    parser.add_argument(
        "--table", action="append", choices=sorted(RATIO_TABLES),
        help="restrict the diff to this table (repeatable; default: all)")
    args = parser.parse_args(argv[1:])
    if args.regress_pct < 0:
        parser.error("--regress-pct must be >= 0")

    base = load_artifact(args.baseline)
    cand = load_artifact(args.candidate)
    if base.get("bench") != cand.get("bench"):
        raise SystemExit(
            f"bench_diff: artifacts disagree on bench name: "
            f"{base.get('bench')!r} vs {cand.get('bench')!r}")

    tables = args.table or sorted(RATIO_TABLES)
    total_regressions = 0
    for name in tables:
        base_rows = base.get("tables", {}).get(name, [])
        cand_rows = cand.get("tables", {}).get(name, [])
        if not base_rows and not cand_rows:
            continue
        regressions, lines = diff_table(
            name, RATIO_TABLES[name], base_rows, cand_rows, args.regress_pct)
        total_regressions += regressions
        for line in lines:
            print(line)

    if total_regressions:
        print(f"bench_diff: {total_regressions} regression(s) past "
              f"{args.regress_pct:g}% threshold", file=sys.stderr)
        return 1
    print(f"bench_diff: no regressions past {args.regress_pct:g}% threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
