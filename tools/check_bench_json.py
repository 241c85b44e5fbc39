#!/usr/bin/env python3
"""Validate BENCH_*.json artifacts emitted by bench::Reporter.

Checks the schema_version-1 shape without external dependencies:

  {
    "bench": str,
    "schema_version": 1,
    "titles": [str, ...],
    "config": {str: any, ...},
    "tables": {str: [{str: any, ...}, ...], ...},
    "series": {str: [number, ...], ...},
    "metrics": {str: [metric-entry, ...], ...},
    "timings": {str: number, ...},   # always includes wall_ms
    "notes": [str, ...],
  }

where a metric-entry is an object with at least "name" (str) and "kind"
("counter" | "gauge" | "histogram"), plus "labels" (object of str) when the
metric carries labels; histograms
additionally carry "count", "sum", "bounds", and "buckets"
(len(buckets) == len(bounds) + 1).

The fleet artifact (bench == "fleet_throughput") gets extra structural checks:
its fleet_speedup/headlines/footprint tables must be present and well-formed,
and every entry of the fleet metrics rollup must carry a "machine" label. The
host artifact (bench == "host_throughput") must carry the pipeline-overlap
columns in every threads_sweep row (phase1_wall/merge_wall seconds,
overlap_efficiency, speculative conflict counters). Every row of the
threads_sweep, parallel_speedup, fleet runs, fleet_speedup and headlines
tables must carry a boolean "oversubscribed", which tools/bench_diff.py reads.

Usage: check_bench_json.py FILE [FILE...]
Exits non-zero on the first malformed artifact.
"""

import json
import numbers
import sys

TOP_LEVEL_KEYS = [
    "bench",
    "schema_version",
    "titles",
    "config",
    "tables",
    "series",
    "metrics",
    "timings",
    "notes",
]

METRIC_KINDS = {"counter", "gauge", "histogram"}


class SchemaError(Exception):
    pass


def expect(cond, path, message):
    if not cond:
        raise SchemaError(f"{path}: {message}")


def check_metric_entry(entry, path):
    expect(isinstance(entry, dict), path, "metric entry must be an object")
    expect(isinstance(entry.get("name"), str), path, "missing string 'name'")
    labels = entry.get("labels", {})
    expect(isinstance(labels, dict), path, "'labels' must be an object when present")
    for key, value in labels.items():
        expect(isinstance(value, str), f"{path}.labels.{key}", "label values must be strings")
    kind = entry.get("kind")
    expect(kind in METRIC_KINDS, path, f"bad kind {kind!r}")
    if kind == "histogram":
        for field in ("count", "sum", "bounds", "buckets"):
            expect(field in entry, path, f"histogram missing {field!r}")
        bounds, buckets = entry["bounds"], entry["buckets"]
        expect(isinstance(bounds, list) and isinstance(buckets, list), path,
               "bounds/buckets must be lists")
        expect(len(buckets) == len(bounds) + 1, path,
               f"len(buckets)={len(buckets)} != len(bounds)+1={len(bounds) + 1}")
    else:
        expect(isinstance(entry.get("value"), numbers.Number), path,
               "counter/gauge missing numeric 'value'")


def check_artifact(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    expect(isinstance(doc, dict), path, "root must be an object")
    for key in TOP_LEVEL_KEYS:
        expect(key in doc, path, f"missing top-level key {key!r}")
    expect(isinstance(doc["bench"], str) and doc["bench"], path, "'bench' must be a non-empty string")
    expect(doc["schema_version"] == 1, path, f"unsupported schema_version {doc['schema_version']!r}")
    expect(isinstance(doc["titles"], list), path, "'titles' must be a list")
    for i, title in enumerate(doc["titles"]):
        expect(isinstance(title, str), f"{path}.titles[{i}]", "must be a string")
    expect(isinstance(doc["config"], dict), path, "'config' must be an object")
    expect(isinstance(doc["tables"], dict), path, "'tables' must be an object")
    for name, rows in doc["tables"].items():
        expect(isinstance(rows, list), f"{path}.tables.{name}", "must be a list of rows")
        for i, row in enumerate(rows):
            expect(isinstance(row, dict), f"{path}.tables.{name}[{i}]", "row must be an object")
    expect(isinstance(doc["series"], dict), path, "'series' must be an object")
    for name, values in doc["series"].items():
        expect(isinstance(values, list), f"{path}.series.{name}", "must be a list")
        for i, v in enumerate(values):
            expect(isinstance(v, numbers.Number) and not isinstance(v, bool),
                   f"{path}.series.{name}[{i}]", "series values must be numbers")
    expect(isinstance(doc["metrics"], dict), path, "'metrics' must be an object")
    for group, entries in doc["metrics"].items():
        expect(isinstance(entries, list), f"{path}.metrics.{group}", "must be a list of entries")
        for i, entry in enumerate(entries):
            check_metric_entry(entry, f"{path}.metrics.{group}[{i}]")
    timings = doc["timings"]
    expect(isinstance(timings, dict), path, "'timings' must be an object")
    expect(isinstance(timings.get("wall_ms"), numbers.Number), path,
           "'timings' must include numeric 'wall_ms'")
    for label, value in timings.items():
        expect(isinstance(value, numbers.Number) and not isinstance(value, bool),
               f"{path}.timings.{label}", "timings must be numbers")
    expect(isinstance(doc["notes"], list), path, "'notes' must be a list")
    for i, note in enumerate(doc["notes"]):
        expect(isinstance(note, str), f"{path}.notes[{i}]", "must be a string")
    if doc["bench"] == "fleet_throughput":
        check_fleet_artifact(doc, path)
    if doc["bench"] == "host_throughput":
        check_host_artifact(doc, path)
    if doc["bench"] == "snapshot_roundtrip":
        check_snapshot_artifact(doc, path)


# Overlap accounting emitted per threads_sweep row by the streaming pipeline
# (ScanTiming: DESIGN.md §14); overlap_efficiency is the fraction of the
# serial phase-1 + merge span hidden by running them concurrently.
OVERLAP_FIELDS = (
    "phase1_wall_seconds",
    "merge_wall_seconds",
    "overlap_efficiency",
    "speculative_hashes",
    "speculative_stale",
)


def check_oversubscribed(doc, path, table_names):
    """Every row of the named tables flags whether its thread count exceeded
    the host's CPUs; bench_diff.py skips the rows that did."""
    for name in table_names:
        for i, row in enumerate(doc["tables"][name]):
            expect(isinstance(row.get("oversubscribed"), bool), f"{path}.tables.{name}[{i}]",
                   "missing boolean 'oversubscribed'")


def check_host_artifact(doc, path):
    """Host-throughput shape: the streaming pipeline's overlap columns must be
    present and numeric in every thread-sweep row."""
    tables = doc["tables"]
    for name in ("runs", "threads_sweep", "parallel_speedup", "headlines"):
        expect(name in tables and tables[name], f"{path}.tables",
               f"host artifact missing table {name!r}")
    check_oversubscribed(doc, path, ("threads_sweep", "parallel_speedup", "headlines"))
    for i, row in enumerate(tables["threads_sweep"]):
        prefix = f"{path}.tables.threads_sweep[{i}]"
        for field in OVERLAP_FIELDS:
            expect(isinstance(row.get(field), numbers.Number), prefix,
                   f"missing numeric overlap column {field!r}")
        eff = row["overlap_efficiency"]
        expect(0.0 <= eff <= 1.0, prefix,
               f"overlap_efficiency {eff!r} outside [0, 1]")
        expect(row["speculative_stale"] <= row["speculative_hashes"], prefix,
               "speculative_stale exceeds speculative_hashes")


def check_fleet_artifact(doc, path):
    """Fleet-specific shape: the tables the regression gate diffs must exist,
    and the metrics rollup must be machine-labeled (Fleet::CollectMetrics)."""
    tables = doc["tables"]
    for name in ("runs", "fleet_speedup", "headlines", "footprint", "machine_variance"):
        expect(name in tables and tables[name], f"{path}.tables", f"fleet artifact missing table {name!r}")
    check_oversubscribed(doc, path, ("runs", "fleet_speedup", "headlines"))
    for i, row in enumerate(tables["fleet_speedup"]):
        expect(isinstance(row.get("threads"), numbers.Number), f"{path}.tables.fleet_speedup[{i}]",
               "missing numeric 'threads'")
        expect(isinstance(row.get("speedup"), numbers.Number), f"{path}.tables.fleet_speedup[{i}]",
               "missing numeric 'speedup'")
    footprint = tables["footprint"][0]
    for field in ("machines", "total_bytes", "mean_machine_bytes", "max_machine_bytes",
                  "template_bytes"):
        expect(isinstance(footprint.get(field), numbers.Number), f"{path}.tables.footprint[0]",
               f"missing numeric {field!r}")
    expect("fleet" in doc["metrics"], f"{path}.metrics", "fleet artifact missing 'fleet' rollup")
    for i, entry in enumerate(doc["metrics"]["fleet"]):
        labels = entry.get("labels", {})
        expect(isinstance(labels.get("machine"), str), f"{path}.metrics.fleet[{i}]",
               "rollup entry missing 'machine' label")


def check_snapshot_artifact(doc, path):
    """Savestate bench shape: one roundtrip row per engine with timing and size
    fields, the idempotence bit set, and a non-empty per-section breakdown."""
    tables = doc["tables"]
    for name in ("roundtrip", "sections"):
        expect(name in tables and tables[name], f"{path}.tables",
               f"snapshot artifact missing table {name!r}")
    for i, row in enumerate(tables["roundtrip"]):
        prefix = f"{path}.tables.roundtrip[{i}]"
        expect(isinstance(row.get("engine"), str), prefix, "missing string 'engine'")
        for field in ("bytes", "save_ms", "restore_ms", "verify_ms"):
            expect(isinstance(row.get(field), numbers.Number), prefix,
                   f"missing numeric {field!r}")
        expect(row.get("bytes", 0) > 0, prefix, "'bytes' must be positive")
        expect(row.get("resave_identical") is True, prefix,
               "restore->resave must be bit-identical")
    for i, row in enumerate(tables["sections"]):
        prefix = f"{path}.tables.sections[{i}]"
        expect(isinstance(row.get("name"), str), prefix, "missing string 'name'")
        expect(isinstance(row.get("bytes"), numbers.Number), prefix,
               "missing numeric 'bytes'")


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        try:
            check_artifact(path)
        except (OSError, json.JSONDecodeError, SchemaError) as err:
            print(f"FAIL {path}: {err}", file=sys.stderr)
            return 1
        print(f"ok   {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
