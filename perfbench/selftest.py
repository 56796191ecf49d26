"""Self-test of the benchmark itself: ``python perfbench/selftest.py`` (< 1 min).

Runs the ``--quick --trace`` form once and checks what it printed and
wrote — not how fast the program is.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys

import gen_traces
import layers
import run
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SUMMARY_KEYS = {"median", "q1", "q3", "min", "max", "n"}
NULL_BY_DESIGN = {
    "executions_per_s": {"watch_keyed", "watch_window"},
    "events_per_s": set(WORKLOADS) - {"watch_keyed", "watch_window"},
    "first_fail_s": set(WORKLOADS) - {"check_bugsuite"},
    "first_fail_p90_s": set(WORKLOADS) - {"check_bugsuite"},
}


def check_quick_run(failures: list) -> None:
    out_path = os.path.join(run.OUT, "selftest-result.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--quick", "--trace", "--seed", "1", "--out", out_path],
        capture_output=True, text=True, timeout=300, check=False,
    )
    if proc.returncode != 0:
        failures.append(f"quick run exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return
    with open(out_path, encoding="utf-8") as handle:
        result = json.load(handle)

    for key in ("nproc", "python", "platform", "git_sha", "seed", "profile",
                "repeats", "src_lines"):
        if key not in result["header"]:
            failures.append(f"header lacks {key!r}")
    if set(result["workloads"]) != set(WORKLOADS):
        failures.append(f"workloads are {sorted(result['workloads'])}")
    for workload, entry in result["workloads"].items():
        if entry["failed"] or not entry["attempted"]:
            failures.append(f"{workload}: {entry['failed']} of {entry['attempted']} runs failed")
        if set(entry["metrics"]) != set(run.END_TO_END):
            failures.append(f"{workload}: end-to-end metrics are {sorted(entry['metrics'])}")
        for metric, summary in entry["metrics"].items():
            if summary is None:
                if workload not in NULL_BY_DESIGN.get(metric, ()):
                    failures.append(f"{workload}.{metric} is null")
            elif set(summary) != SUMMARY_KEYS or not summary["median"] > 0:
                failures.append(f"{workload}.{metric}: bad summary {summary}")

    traced = result["layers"]
    if not traced["correct"]:
        failures.append(f"traced pass: {traced['problems']}")
    seen = set()
    for scope, metrics in traced["metrics"].items():
        for metric, value in metrics.items():
            seen.add(metric)
            if value["unit"] != layers.LAYER_METRICS[metric][0]:
                failures.append(f"{scope}.{metric}: unit {value['unit']!r}")
            if value["value"] is None:
                failures.append(f"{scope}.{metric} is null: {value.get('reason')}")
    if seen != set(layers.LAYER_METRICS):
        failures.append(f"layer metrics missing: {sorted(set(layers.LAYER_METRICS) - seen)}")
    cover = traced["metrics"]["check_exhaustive"]["core.check.layers_cover"]["value"]
    if not 0.9 <= cover <= 1.1:
        failures.append(f"core.check.layers_cover = {cover}, outside 0.9–1.1")
    for path in traced["span_files"]:
        with open(os.path.join(run.HERE, path), encoding="utf-8") as handle:
            span = json.loads(handle.readline())
        if set(span) != {"workload", "id", "name", "start", "end", "parent"}:
            failures.append(f"{path}: span keys {sorted(span)}")


def check_names_and_benchmark_json(failures: list) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    names = (list(WORKLOADS) + list(run.END_TO_END) + list(layers.LAYER_METRICS))
    for name in names:
        if not NAME.match(name):
            failures.append(f"name {name!r} is outside [A-Za-z0-9_.-]+")
    if [w["name"] for w in benchmark["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.py")
    gated = {m["name"]: (m["unit"], m["better"]) for m in benchmark["end_to_end"]}
    if gated != {m: run.END_TO_END[m] for m in run.GATED}:
        failures.append("BENCHMARK.json end_to_end differs from run.GATED")
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in benchmark["per_layer"]}
    if per_layer != {m: v[:2] for m, v in layers.LAYER_METRICS.items()}:
        failures.append("BENCHMARK.json per_layer differs from layers.LAYER_METRICS")


def check_missing_target_gives_null(failures: list) -> None:
    def probe_missing_function() -> dict:
        from repro.core.witness import no_such_function  # noqa: F401

        return {"x.y": 1.0}

    collector = layers.Collector("selftest")
    with contextlib.redirect_stderr(io.StringIO()):  # the traceback is expected
        collector.probe(("x.y",), probe_missing_function)
    if collector.values != {"x.y": None} or "ImportError" not in collector.reasons["x.y"]:
        failures.append(f"missing target gave {collector.values} / {collector.reasons}")


def check_bare_directory_fails(failures: list) -> None:
    """With no program to measure: a non-zero exit and no result line."""
    bare = os.path.join(run.OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "check_bugsuite",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    failures: list = []
    if gen_traces.selfcheck() != 0:
        failures.append("gen_traces is not deterministic in its seed")
    check_names_and_benchmark_json(failures)
    check_missing_target_gives_null(failures)
    check_bare_directory_fails(failures)
    check_quick_run(failures)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest FAILED" if failures else "selftest PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
