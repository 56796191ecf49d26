"""Diff two ``BENCH_*.json`` snapshots and fail on perf regressions.

Usage::

    python benchmarks/bench_compare.py BASELINE.json CURRENT.json \
        [--threshold 20]

Walks both snapshots recursively and compares every numeric metric that
appears in both, using the repo's naming conventions to know which
direction is good:

* **higher is better** — keys containing ``per_sec``, ``rate``,
  ``throughput`` or ``speedup``;
* **lower is better** — keys containing ``seconds``, ``_time``,
  ``elapsed``, ``memory`` or ``bytes``;
* anything else (counts, modes, sizes) is structural, not a performance
  metric, and is ignored.

The header's ``src_lines`` (non-blank lines under ``src/repro``) is
printed as a delta when both snapshots carry it, and never gated on.

Exit status: 0 = no regression, 1 = at least one metric regressed past
the threshold (default 20%), 64 = usage error (missing file, wrong
schema, snapshots of different benchmarks).  Designed for the CI bench
jobs: compare the fresh snapshot against the committed/cached baseline
and turn silent slowdowns into red builds.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Header keys stamped by benchlib — metadata, never compared.
METADATA_KEYS = frozenset(
    {
        "schema_version",
        "benchmark",
        "python",
        "platform",
        "cpu_count",
        "git_sha",
        "timestamp",
        "src_lines",
    }
)

HIGHER_BETTER = ("per_sec", "rate", "throughput", "speedup")
LOWER_BETTER = ("seconds", "_time", "elapsed", "memory", "bytes")

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 64


def direction(key: str) -> "str | None":
    """'up' (higher better), 'down' (lower better), or None (skip)."""
    name = key.lower()
    if any(marker in name for marker in HIGHER_BETTER):
        return "up"
    if any(marker in name for marker in LOWER_BETTER):
        return "down"
    return None


def collect_metrics(node, prefix: str = "") -> "dict[str, float]":
    """Flatten numeric leaves into ``{dotted.path: value}``.

    List elements are keyed by a stable label when available (``subject``
    / ``name`` / ``benchmark`` fields of dict rows) so reordered rows
    still line up, falling back to the index.
    """
    metrics: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            if prefix == "" and key in METADATA_KEYS:
                continue
            path = f"{prefix}.{key}" if prefix else key
            metrics.update(collect_metrics(value, path))
    elif isinstance(node, list):
        seen: dict[str, int] = {}
        for index, value in enumerate(node):
            label = str(index)
            if isinstance(value, dict):
                for field in ("subject", "name", "benchmark", "engine"):
                    if isinstance(value.get(field), str):
                        label = value[field]
                        break
            # Sibling rows may share a label (same subject at different
            # bounds); number the repeats so no row shadows another.
            repeat = seen.get(label, 0)
            seen[label] = repeat + 1
            if repeat:
                label = f"{label}#{repeat}"
            metrics.update(collect_metrics(value, f"{prefix}[{label}]"))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        leaf = prefix.rsplit(".", 1)[-1]
        if direction(leaf) is not None:
            metrics[prefix] = float(node)
    return metrics


def load_snapshot(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except OSError as exc:
        raise SystemExit2(f"cannot read snapshot {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit2(f"snapshot {path!r} is not valid JSON: {exc}")
    if not isinstance(snapshot, dict) or "benchmark" not in snapshot:
        raise SystemExit2(
            f"snapshot {path!r} is missing the benchlib metadata header"
        )
    return snapshot


class SystemExit2(Exception):
    """Usage-level failure, mapped to exit 64 in main()."""


def compare(
    baseline: dict, current: dict, threshold_pct: float
) -> "tuple[list[str], list[str]]":
    """Return (report_lines, regression_lines)."""
    if baseline.get("benchmark") != current.get("benchmark"):
        raise SystemExit2(
            f"snapshots disagree on the benchmark: "
            f"{baseline.get('benchmark')!r} vs {current.get('benchmark')!r}"
        )
    base_metrics = collect_metrics(baseline)
    cur_metrics = collect_metrics(current)
    report: list[str] = []
    regressions: list[str] = []
    report.append(
        f"comparing {baseline.get('benchmark')}: "
        f"{baseline.get('git_sha') or '?'} ({baseline.get('timestamp', '?')}) "
        f"-> {current.get('git_sha') or '?'} ({current.get('timestamp', '?')})"
    )
    base_lines, cur_lines = baseline.get("src_lines"), current.get("src_lines")
    if base_lines is not None and cur_lines is not None:
        # Informational only: code size is a trajectory, not a gate.
        report.append(
            f"  src_lines: {base_lines} -> {cur_lines} "
            f"({cur_lines - base_lines:+d})"
        )
    shared = sorted(base_metrics.keys() & cur_metrics.keys())
    if not shared:
        report.append("no comparable metrics found in both snapshots")
    for path in shared:
        base, cur = base_metrics[path], cur_metrics[path]
        leaf = path.rsplit(".", 1)[-1]
        better_up = direction(leaf) == "up"
        if base == 0:
            change_pct = 0.0 if cur == 0 else float("inf")
        else:
            change_pct = (cur - base) / abs(base) * 100.0
        worse = -change_pct if better_up else change_pct
        marker = " "
        if worse > threshold_pct:
            marker = "!"
            regressions.append(
                f"{path}: {base:g} -> {cur:g} "
                f"({change_pct:+.1f}%, {'higher' if better_up else 'lower'}"
                f"-is-better, threshold {threshold_pct:g}%)"
            )
        report.append(
            f"  {marker} {path}: {base:g} -> {cur:g} ({change_pct:+.1f}%)"
        )
    only_base = sorted(base_metrics.keys() - cur_metrics.keys())
    if only_base:
        report.append(
            f"  note: {len(only_base)} metric(s) vanished from the current "
            f"snapshot: {', '.join(only_base[:5])}"
            + (" ..." if len(only_base) > 5 else "")
        )
    return report, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="diff two BENCH_*.json snapshots; exit 1 on regression"
    )
    parser.add_argument("baseline", help="older snapshot (the reference)")
    parser.add_argument("current", help="newer snapshot (the candidate)")
    parser.add_argument(
        "--threshold", type=float, default=20.0, metavar="PCT",
        help="regression tolerance in percent (default: 20)",
    )
    args = parser.parse_args(argv)
    if args.threshold < 0:
        print("error: --threshold must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    try:
        baseline = load_snapshot(args.baseline)
        current = load_snapshot(args.current)
        report, regressions = compare(baseline, current, args.threshold)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for line in report:
        print(line)
    if regressions:
        print()
        for line in regressions:
            print(f"REGRESSION: {line}")
        return EXIT_REGRESSION
    print("no regressions past the threshold")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
