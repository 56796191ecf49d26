"""The six workloads: their sizes, their CLI commands and their output checks.

A workload is a list of ``python -m repro ...`` commands (one, or the
seven of ``check_bugsuite``) with default flags — never ``--engine``, so
a changed default shows as a gain or a loss.  Every command pins its
exit code, verdict and counts; the counts are semantics, not speed, and
must be equal on every run.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable

from gen_traces import KEYS

#: Queue tests for the check workloads, by name.  Pinned per test:
#: phase-1 executions, phase-2 executions (complete, PB = 2), classes.
TESTS = {
    "3col-5op": "Enqueue(1); TryDequeue | Enqueue(2); TryDequeue | TryDequeue",
    "3col-4op": "Enqueue(1); TryDequeue | Enqueue(2) | TryDequeue",
    "2x2": "Enqueue(1); TryDequeue | Enqueue(2); TryDequeue",
    # the reduction probe's test (unbounded sleep-set and DPOR search)
    "2x3": "Enqueue(1); TryDequeue; Enqueue(3) | Enqueue(2); TryDequeue; TryDequeue",
}
TEST_PINS = {
    "3col-5op": (30, 19334, 5676),
    "3col-4op": (12, 3747, 1446),
    "2x2": (6, 604, 166),
}

#: Input sizes.  ``full`` is what a person runs to record a baseline (one
#: CLI run lasts 5–15 s); ``gate`` is what the time-boxed mode runs
#: (``--seconds``: one CLI run lasts ~2 s so that a 20 s box holds enough
#: runs for a steady median); ``quick`` is the self-test.  ``parallel_free``:
#: whether a parallel workload (``check_sharded``) gets every CPU or, like
#: the rest, one — two workers on two cores are bimodal for minutes at a
#: time (README, A/A), which no 20 s box averages out.
PROFILES = {
    "full": {
        "test": "3col-5op", "samples": 4, "keyed_ops": 200_000, "window_ops": 3_000,
        "cli_samples": 20, "serial_probe": 1680, "reduction_test": "2x3",
        "parallel_free": True,
    },
    "gate": {
        "test": "3col-4op", "samples": 2, "keyed_ops": 40_000, "window_ops": 1_000,
        "cli_samples": 5, "serial_probe": 400, "reduction_test": "2x2",
        "parallel_free": False,
    },
    "quick": {
        "test": "2x2", "samples": 1, "keyed_ops": 20_000, "window_ops": 300,
        "cli_samples": 3, "serial_probe": 100, "reduction_test": "2x2",
        "parallel_free": True,
    },
}

#: The paper's seven real bugs (root causes A–G): class, cause tag, and the
#: pinned phase-1 / phase-2 execution counts up to the first violation.
BUGS = (
    ("ManualResetEvent", "A", 4, 89),
    ("SemaphoreSlim", "B", 3, 7),
    ("CountdownEvent", "C", 3, 13),
    ("ConcurrentQueue", "D", 6, 4),
    ("ConcurrentDictionary", "E", 12, 96),
    ("ConcurrentStack", "F", 6, 2),
    ("Lazy", "G", 2, 2),
)

SERIAL_HISTORIES_3X3 = 1680  # 9! / (3! 3! 3!) serial executions of a 3×3 test
CAMPAIGN_SCHEDULES = 150  # the campaign's default random schedules per test
WATCH_CONFIG_CAP = 1_000_000_000


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must say.

    ``check(stdout)`` returns ``(work, problems)``: the units of work the
    run reports having done, and a list of mismatches (empty = correct).
    """

    argv: tuple[str, ...]  #: arguments after ``python -m repro``
    exit_code: int
    check: Callable[[str], tuple[int, list[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str  #: "executions" (SUT executions) or "events" (trace events)
    #: (profile sizes, seed, trace paths by shape) -> the commands of one run
    commands: Callable[[dict, int, dict], list[Command]]
    trace_shape: str | None = None  #: the generated trace it reads, if any
    runs_per_repeat: int = 1
    parallel: bool = False  #: uses more than one CPU where the profile lets it


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _load_json(stdout: str, problems: list[str]) -> dict:
    try:
        document = json.loads(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return {}
    return document if isinstance(document, dict) else {}


def _check_json(test: str):
    phase1, phase2, classes = TEST_PINS[test]

    def check(stdout: str) -> tuple[int, list[str]]:
        problems: list[str] = []
        doc = _load_json(stdout, problems)
        if doc:
            _expect(problems, "verdict", doc.get("verdict"), "PASS")
            _expect(problems, "phase-1 executions",
                    doc.get("phase1", {}).get("executions"), phase1)
            _expect(problems, "phase-2 executions",
                    doc.get("phase2", {}).get("executions"), phase2)
            _expect(problems, "phase-2 complete",
                    doc.get("phase2", {}).get("complete"), True)
            _expect(problems, "equivalence classes",
                    doc.get("reduction", {}).get("equivalence_classes"), classes)
        return phase1 + phase2, problems

    return check


_REPORT_VERDICT = re.compile(r"^verdict: (\w+)", re.M)
_REPORT_PHASE1 = re.compile(r"^phase 1: (\d+) serial executions", re.M)
_REPORT_PHASE2 = re.compile(r"^phase 2: (\d+) concurrent executions", re.M)


def _check_report(phase1: int, phase2: int):
    """The text report of a failing check (the bug suite renders it)."""

    def check(stdout: str) -> tuple[int, list[str]]:
        problems: list[str] = []
        for what, pattern, want in (
            ("verdict", _REPORT_VERDICT, "FAIL"),
            ("phase-1 executions", _REPORT_PHASE1, str(phase1)),
            ("phase-2 executions", _REPORT_PHASE2, str(phase2)),
        ):
            match = pattern.search(stdout)
            _expect(problems, what, match.group(1) if match else None, want)
        return phase1 + phase2, problems

    return check


def _check_campaign_table(samples: int):
    """The one data row of the campaign's Table 2 rendering."""
    schedules = CAMPAIGN_SCHEDULES * samples

    def check(stdout: str) -> tuple[int, list[str]]:
        problems: list[str] = []
        rows = [
            line.split() for line in stdout.splitlines()
            if line.startswith("ConcurrentQueue")
        ]
        if len(rows) != 1 or len(rows[0]) != 15:
            problems.append("expected one 15-column ConcurrentQueue table row")
        else:
            (_cls, _ver, _causes, _dim, hist_avg, hist_max, _p1, failed, passed,
             crashed, _tfail, _tpass, sched, _pruned, _pb) = rows[0]
            _expect(problems, "serial histories per test (avg)",
                    hist_avg, f"{SERIAL_HISTORIES_3X3:.1f}")
            _expect(problems, "serial histories per test (max)",
                    hist_max, str(SERIAL_HISTORIES_3X3))
            _expect(problems, "tests failed", failed, "0")
            _expect(problems, "tests passed", passed, str(samples))
            _expect(problems, "tests crashed", crashed, "0")
            _expect(problems, "sampled schedules", sched, str(schedules))
        return SERIAL_HISTORIES_3X3 * samples + schedules, problems

    return check


def _check_watch(ops: int, partitioned: bool, cells: int):
    def check(stdout: str) -> tuple[int, list[str]]:
        problems: list[str] = []
        doc = _load_json(stdout, problems)
        if doc:
            stats = doc.get("stats", {})
            _expect(problems, "verdict", doc.get("verdict"), "PASS")
            _expect(problems, "finalized", doc.get("finalized"), True)
            _expect(problems, "partitioned", doc.get("partitioned"), partitioned)
            _expect(problems, "cells", stats.get("cells"), cells)
            _expect(problems, "retired", stats.get("retired"), ops)
            _expect(problems, "returns", stats.get("returns"), ops)
        return 2 * ops, problems  # one call and one return event per op

    return check


def _check(*flags: str):
    def commands(sizes: dict, seed: int, traces: dict) -> list[Command]:
        test = sizes["test"]
        return [Command(
            ("check", "ConcurrentQueue", "--test", TESTS[test], *flags, "--json"),
            0, _check_json(test),
        )]

    return commands


def _bugsuite(sizes: dict, seed: int, traces: dict) -> list[Command]:
    return [
        Command(("check", cls, "--version", "pre", "--cause", cause),
                1, _check_report(phase1, phase2))
        for cls, cause, phase1, phase2 in BUGS
    ]


def _campaign(sizes: dict, seed: int, traces: dict) -> list[Command]:
    samples = sizes["samples"]
    return [Command(
        ("campaign", "ConcurrentQueue", "--versions", "beta",
         "--samples", str(samples), "--seed", str(seed)),
        0, _check_campaign_table(samples),
    )]


def _watch_keyed(sizes: dict, seed: int, traces: dict) -> list[Command]:
    return [Command(
        ("watch", traces["keyed"], "--json"),
        0, _check_watch(sizes["keyed_ops"], True, KEYS),
    )]


def _watch_window(sizes: dict, seed: int, traces: dict) -> list[Command]:
    return [Command(
        ("watch", traces["window"], "--json",
         "--max-configurations", str(WATCH_CONFIG_CAP)),
        0, _check_watch(sizes["window_ops"], False, 1),
    )]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "check_exhaustive",
            "The paper's Check to a PASS: almost all time is the phase-2 "
            "bounded DFS, so runtime, harness, witness and fingerprint do "
            "the work and start-up, phase 1 and the pool do none.",
            "executions", _check(),
        ),
        Workload(
            "check_sharded",
            "The same test through swarm + exec on 2 workers: spawn, pipes, "
            "leases, merge; its ratio to check_exhaustive is the scaling.",
            "executions", _check("--shards", "2", "--workers", "2"), parallel=True,
        ),
        Workload(
            "check_bugsuite",
            "Time to a FAIL on the paper's seven real bugs: interpreter "
            "start, import, phase 1 and report; must not move when phase 2 "
            "gets faster.",
            "executions", _bugsuite, runs_per_repeat=3,
        ),
        Workload(
            "campaign_random",
            "The paper's RandomCheck: 3x3 tests, 1680 serial executions then "
            "150 random schedules each; serial mode and sampling, not DFS.",
            "executions", _campaign,
        ),
        Workload(
            "watch_keyed",
            "Streaming at traffic rate: a per-key dict trace, ~1 configuration "
            "per op, so tail + decode + validate + route dominate.",
            "events", _watch_keyed, trace_shape="keyed",
        ),
        Workload(
            "watch_window",
            "Same stream path, opposite balance: an unpartitionable queue "
            "trace, ~420 configurations per op, so incremental WGL dominates.",
            "events", _watch_window, trace_shape="window",
        ),
    )
}
