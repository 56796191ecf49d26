"""Bench snapshot provenance stamping and the regression comparator."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "benchmarks"
)


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_BENCH_DIR, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


benchlib = _load("benchlib")
bench_compare = _load("bench_compare")


class TestSnapshotProvenance:
    def test_metadata_carries_sha_and_timestamp(self):
        meta = benchlib.snapshot_metadata("demo")
        assert "git_sha" in meta
        assert "timestamp" in meta
        # This repo IS a git checkout, so the sha must resolve here.
        assert isinstance(meta["git_sha"], str) and len(meta["git_sha"]) == 40
        assert "T" in meta["timestamp"]  # ISO-8601

    def test_metadata_carries_src_lines(self):
        lines = benchlib.snapshot_metadata("demo")["src_lines"]
        cli = os.path.join(os.path.dirname(_BENCH_DIR), "src", "repro", "cli.py")
        with open(cli, encoding="utf-8") as handle:
            cli_lines = sum(1 for line in handle if line.strip())
        assert lines > cli_lines > 0  # the whole package, blanks left out

    def test_write_snapshot_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH_demo.json")
        benchlib.write_snapshot(path, "demo", {"ops_per_sec": 100.0})
        snapshot = json.load(open(path, encoding="utf-8"))
        assert snapshot["benchmark"] == "demo"
        assert snapshot["ops_per_sec"] == 100.0
        assert snapshot["git_sha"]
        assert snapshot["timestamp"]


def snap(tmp_path, name, payload, benchmark="demo"):
    path = str(tmp_path / name)
    meta = {
        "schema_version": 1,
        "benchmark": benchmark,
        "python": "3",
        "platform": "test",
        "cpu_count": 1,
        "git_sha": "a" * 40,
        "timestamp": "2026-01-01T00:00:00+00:00",
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**meta, **payload}, handle)
    return path


class TestCompare:
    def test_no_change_passes(self, tmp_path, capsys):
        a = snap(tmp_path, "a.json", {"ops_per_sec": 100.0})
        b = snap(tmp_path, "b.json", {"ops_per_sec": 100.0})
        assert bench_compare.main([a, b]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_src_lines_delta_is_printed_and_never_gates(self, tmp_path, capsys):
        a = snap(tmp_path, "a.json", {"ops_per_sec": 100.0, "src_lines": 1000})
        b = snap(tmp_path, "b.json", {"ops_per_sec": 100.0, "src_lines": 2000})
        assert bench_compare.main([a, b]) == 0
        assert "src_lines: 1000 -> 2000 (+1000)" in capsys.readouterr().out
        # A snapshot from before the field existed compares without it.
        c = snap(tmp_path, "c.json", {"ops_per_sec": 100.0})
        assert bench_compare.main([c, b]) == 0
        assert "src_lines" not in capsys.readouterr().out

    def test_throughput_drop_past_threshold_fails(self, tmp_path, capsys):
        a = snap(tmp_path, "a.json", {"ops_per_sec": 100.0})
        b = snap(tmp_path, "b.json", {"ops_per_sec": 70.0})  # -30%
        assert bench_compare.main([a, b]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_throughput_gain_passes(self, tmp_path):
        a = snap(tmp_path, "a.json", {"ops_per_sec": 100.0})
        b = snap(tmp_path, "b.json", {"ops_per_sec": 500.0})
        assert bench_compare.main([a, b]) == 0

    def test_latency_increase_fails(self, tmp_path):
        # seconds-style metrics regress UPWARD.
        a = snap(tmp_path, "a.json", {"solo_seconds": 1.0})
        b = snap(tmp_path, "b.json", {"solo_seconds": 1.5})
        assert bench_compare.main([a, b]) == 1

    def test_latency_decrease_passes(self, tmp_path):
        a = snap(tmp_path, "a.json", {"solo_seconds": 1.5})
        b = snap(tmp_path, "b.json", {"solo_seconds": 1.0})
        assert bench_compare.main([a, b]) == 0

    def test_within_threshold_passes(self, tmp_path):
        a = snap(tmp_path, "a.json", {"ops_per_sec": 100.0})
        b = snap(tmp_path, "b.json", {"ops_per_sec": 85.0})  # -15% < 20%
        assert bench_compare.main([a, b]) == 0

    def test_custom_threshold(self, tmp_path):
        a = snap(tmp_path, "a.json", {"ops_per_sec": 100.0})
        b = snap(tmp_path, "b.json", {"ops_per_sec": 85.0})
        assert bench_compare.main([a, b, "--threshold", "10"]) == 1

    def test_nested_rows_matched_by_label_not_order(self, tmp_path):
        a = snap(tmp_path, "a.json", {"subjects": [
            {"subject": "x", "schedules_per_sec": 10.0},
            {"subject": "y", "schedules_per_sec": 100.0},
        ]})
        b = snap(tmp_path, "b.json", {"subjects": [
            {"subject": "y", "schedules_per_sec": 101.0},  # reordered, fine
            {"subject": "x", "schedules_per_sec": 2.0},    # regressed
        ]})
        assert bench_compare.main([a, b]) == 1

    def test_structural_counts_ignored(self, tmp_path):
        a = snap(tmp_path, "a.json", {"executions": 100, "mode": "quick"})
        b = snap(tmp_path, "b.json", {"executions": 5, "mode": "full"})
        assert bench_compare.main([a, b]) == 0  # counts aren't perf metrics

    def test_mismatched_benchmarks_usage_error(self, tmp_path, capsys):
        a = snap(tmp_path, "a.json", {"ops_per_sec": 1.0}, benchmark="x")
        b = snap(tmp_path, "b.json", {"ops_per_sec": 1.0}, benchmark="y")
        assert bench_compare.main([a, b]) == 64
        assert "disagree" in capsys.readouterr().err

    def test_missing_file_usage_error(self, tmp_path, capsys):
        a = snap(tmp_path, "a.json", {"ops_per_sec": 1.0})
        assert bench_compare.main([a, str(tmp_path / "nope.json")]) == 64
        assert "cannot read" in capsys.readouterr().err


def test_duplicate_row_labels_do_not_shadow(tmp_path):
    # Two rows with the same subject (same benchmark at different
    # bounds): a regression in the SECOND must still be caught.
    a = snap(tmp_path, "a.json", {"rows": [
        {"subject": "Counter", "bound": 1, "solo_seconds": 1.0},
        {"subject": "Counter", "bound": 2, "solo_seconds": 1.0},
    ]})
    b = snap(tmp_path, "b.json", {"rows": [
        {"subject": "Counter", "bound": 1, "solo_seconds": 1.0},
        {"subject": "Counter", "bound": 2, "solo_seconds": 5.0},
    ]})
    assert bench_compare.main([a, b]) == 1
