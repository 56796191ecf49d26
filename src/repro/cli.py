"""Command-line interface: ``python -m repro <command>``, the parser.

Line-Up as a tool, mirroring how the paper's authors drove it: ``list``
prints the Table 1 inventory, ``check`` runs the two-phase check of one
finite test against a registry class, e.g.::

    python -m repro check ConcurrentQueue --version pre \\
        --test "Enqueue(200); TryDequeue | Enqueue(400); TryDequeue"

(columns ``|``, operations ``;``, arguments Python literals; ``--cause D``
takes the curated witness of a Table 2 root cause instead), ``campaign``
a RandomCheck campaign (Table 2 rows), ``observations`` phase 1 alone,
``resume`` a stopped run, ``monitor`` / ``watch`` recorded or growing
JSONL traces against a sequential model, and ``live`` a real service.
``--help`` lists them all.

This module is the parser only.  Each command runs beside its subsystem
(``set_defaults(run="module:function")``, imported once the command line
is parsed) and answers a :class:`repro.command.Outcome`; :func:`main`
prints it once — ``--json`` the document, otherwise the text report — and
maps its verdict to the exit code once, through :data:`_VERDICT_EXIT`.

Long runs are interruptible: ``--deadline SECONDS`` bounds the
exploration (an explicit EXHAUSTED verdict with partial statistics),
``--checkpoint PATH`` persists the frontier, and SIGINT/SIGTERM trigger a
graceful shutdown that flushes the checkpoint and prints the partial
report.  :data:`EXIT_CODE_MEANINGS` is the exit-status contract.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import os
import sys
from typing import TYPE_CHECKING, Sequence

from repro.command import SignalStop, UsageError
from repro.core.events import Invocation
from repro.runtime import DEFAULT_ENGINE, ENGINES

if TYPE_CHECKING:
    from repro.core import FiniteTest

__all__ = ["main"]

#: Exit codes (documented in the module docstring and ``--help``).
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_EXHAUSTED = 2
EXIT_USAGE = 64
#: No verdict at all was obtained (see EXIT_CODE_MEANINGS), which almost
#: always means an environment problem rather than a concurrency bug.
EXIT_ALLCRASHED = 70
#: ``lineup watch``: the online checker could not drain the trace within
#: the lag budget — the verdict is honest ("I fell behind"), not a PASS
#: over a stream it silently skipped.
EXIT_LAGGED = 75
EXIT_INTERRUPTED = 130

#: Single source of truth for the exit-code contract.  The ``--help``
#: epilog is generated from this mapping and the tables in README.md /
#: docs/ROBUSTNESS.md are pinned against it by
#: ``tests/core/test_cli_robustness.py`` — edit here, everything else
#: follows or fails.
EXIT_CODE_MEANINGS = {
    EXIT_PASS: "PASS",
    EXIT_FAIL: "violation found",
    EXIT_EXHAUSTED: "exploration budget exhausted",
    EXIT_USAGE: "usage error",
    EXIT_ALLCRASHED: "every test of an isolated campaign crashed, a shard "
                     "of a sharded check crashed, or the live service died "
                     "unexpectedly",
    EXIT_LAGGED: "online watch fell behind the writer past the lag budget",
    EXIT_INTERRUPTED: "interrupted (SIGINT/SIGTERM)",
}

#: The exit code of each verdict of :mod:`repro.core.verdict`: the one
#: mapping every command exits through (an interrupted run exits 130).
_VERDICT_EXIT = {
    "FAIL": EXIT_FAIL,
    "nondeterministic-verdict": EXIT_FAIL,
    "CRASHED": EXIT_ALLCRASHED,
    "LAGGED": EXIT_LAGGED,
    "EXHAUSTED": EXIT_EXHAUSTED,
    "PASS": EXIT_PASS,
}

#: A user-facing command-line error (exit 64); commands raise it too.
CliError = UsageError


def parse_invocation(text: str) -> Invocation:
    """Parse ``Method(arg, ...)`` (or bare ``Method``) into an Invocation."""
    text = text.strip()
    if not text:
        raise CliError("empty invocation")
    try:
        node = ast.parse(text, mode="eval").body
    except SyntaxError as exc:
        raise CliError(f"cannot parse invocation {text!r}: {exc}") from exc
    if isinstance(node, ast.Name):
        return Invocation(node.id)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.keywords:
            raise CliError(f"keyword arguments not supported in {text!r}")
        try:
            args = tuple(ast.literal_eval(arg) for arg in node.args)
        except ValueError as exc:
            raise CliError(
                f"arguments of {text!r} must be literals: {exc}"
            ) from exc
        return Invocation(node.func.id, args)
    raise CliError(f"cannot parse invocation {text!r}")


def _sequence(text: str) -> list[Invocation]:
    """``op; op``: an init or final sequence (or one column)."""
    return [
        parse_invocation(op)
        for op in (piece.strip() for piece in text.split(";"))
        if op
    ]


def _columns(matrix: str) -> list[list[Invocation]]:
    """``op; op | op``: a test matrix's columns (``|``) of operations."""
    columns = [_sequence(column) for column in matrix.split("|")]
    if not any(columns):
        raise CliError("the test matrix has no operations")
    return columns


def parse_test(
    matrix: str, init: str | None = None, final: str | None = None
) -> FiniteTest:
    """Parse a test matrix: ``op; op | op`` (columns ``|``, ops ``;``)."""
    from repro.core.testcase import FiniteTest

    return FiniteTest.of(
        _columns(matrix), init=_sequence(init or ""), final=_sequence(final or "")
    )


def _count(minimum: int):
    """An argparse ``type=`` for an integer flag of at least *minimum*."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return count


def _seconds(*, zero: bool = False):
    """An argparse ``type=`` for a duration: positive, or also 0 if *zero*."""

    def seconds(text: str) -> float:
        value = float(text)
        if not (value >= 0 if zero else value > 0):  # NaN fails both
            least = "a non-negative" if zero else "a positive"
            raise argparse.ArgumentTypeError(
                f"must be {least} number of seconds, got {text}"
            )
        return value

    return seconds


def _add_test_options(parser: argparse.ArgumentParser) -> None:
    """The test to check: a matrix, parsed here, or a curated witness."""
    parser.add_argument(
        "--test", metavar="MATRIX", type=_columns,
        help="test matrix, columns '|', ops ';' — e.g. \"Add(1); TryTake | TryTake\"",
    )
    parser.add_argument(
        "--init", metavar="OPS", type=_sequence, default=[],
        help="init sequence (ops ';')",
    )
    parser.add_argument(
        "--final", metavar="OPS", type=_sequence, default=[],
        help="final sequence (ops ';')",
    )
    parser.add_argument(
        "--cause", metavar="TAG", help="use the curated witness for a root cause"
    )


def _add_isolation_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--isolate", action="store_true",
        help="run each test in a sandboxed worker process; a test that "
             "kills its worker is retried and then quarantined (verdict "
             "CRASHED) instead of aborting the campaign",
    )
    _add_worker_options(parser)


def _add_swarm_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards", type=_count(1), metavar="N",
        help="split this check's schedule space into N shards fanned "
             "across sandboxed workers; the run survives losing any "
             "shard (requeue, quarantine, resumable shard checkpoints)",
    )
    parser.add_argument(
        "--lease", type=_count(1), default=512, metavar="N",
        help="executions per shard lease before the frontier is "
             "checkpointed back to the coordinator (default: 512)",
    )
    _add_worker_options(parser)


def _add_worker_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=_count(1), default=2, metavar="N",
        help="sandboxed worker processes (default: 2)",
    )
    parser.add_argument(
        "--mem-limit-mb", type=_count(1), metavar="MB",
        help="RLIMIT_AS cap per worker, in MiB (default: unlimited)",
    )
    parser.add_argument(
        "--max-retries", type=_count(0), default=2, metavar="N",
        help="crash retries before a test is quarantined (default: 2)",
    )
    parser.add_argument(
        "--start-method", choices=("fork", "spawn"),
        help="how workers are started (default: fork where the platform "
             "has it, else spawn)",
    )
    parser.add_argument(
        "--report-dir", metavar="DIR",
        help="directory for crash reports and worker stderr files "
             "(default: a fresh temporary directory, removed again when "
             "it holds nothing to read)",
    )


def _add_robustness_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--deadline", type=_seconds(), metavar="SECONDS",
        help="wall-clock budget; on expiry the run stops with verdict "
             "EXHAUSTED, partial statistics, and exit code 2",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH",
        help="periodically persist the exploration frontier to PATH "
             "(atomic writes); continue later with 'resume PATH'",
    )
    parser.add_argument(
        "--watchdog", type=_seconds(), metavar="SECONDS",
        help="max seconds one operation may run between scheduling points "
             "before the execution is classified divergent (default: off)",
    )


def _add_check_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--version", choices=("pre", "beta"), default="beta",
        help="library vintage to test (default: beta)",
    )
    parser.add_argument(
        "--strategy", choices=("dfs", "random"), default="dfs",
        help="phase-2 exploration strategy (default: dfs)",
    )
    parser.add_argument(
        "--preemption-bound", type=int, default=2, metavar="N",
        help="phase-2 preemption bound; -1 for unbounded (default: 2)",
    )
    parser.add_argument(
        "--schedules", type=_count(1), default=2000, metavar="N",
        help="schedules to sample when --strategy random (default: 2000)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-executions", type=_count(1), default=20_000, metavar="N",
        help="phase-2 execution cap (default: 20000)",
    )
    _add_reduction_option(parser)
    parser.add_argument(
        "--model", metavar="NAME",
        help="check each phase-2 history against this explicit sequential "
             "model (register, counter, queue, stack, set, dict) instead of "
             "the phase-1 specification: the monitor backend, which skips "
             "phase 1",
    )
    _add_engine_argument(parser)
    _add_trace_dump_option(parser)
    _add_provider_option(parser)


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=ENGINES, default=DEFAULT_ENGINE,
        help=f"scheduler engine ({' or '.join(ENGINES)}; default: "
             f"{DEFAULT_ENGINE}): OS threads passing a baton, or zero-thread "
             "generator tasks — identical decision traces, the latter faster "
             "when workers contend for cores (see docs/PERFORMANCE.md)",
    )


def _add_reduction_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--reduction", choices=("none", "sleep", "dpor"), default="none",
        help="phase-2 partial-order reduction: prune schedules equivalent "
             "to explored ones (sleep sets or DPOR over the DFS search, so "
             "check needs --strategy dfs; verdicts and history sets are "
             "unchanged)",
    )


def _add_trace_dump_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dump-traces", metavar="DIR",
        help="dump every judged concurrent history into DIR, one JSONL "
             "trace file each (DIR/<subject>-<digest>/<n>.trace.jsonl per "
             "test), re-checkable offline with 'monitor TRACE... --model NAME'",
    )


def _add_provider_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--provider", metavar="MODULE",
        help="module exposing get_class(NAME) to resolve CLASS (default: "
             "the Table 1 registry); crash-report repro commands use this",
    )


class _ArgumentParser(argparse.ArgumentParser):
    """Argparse variant whose usage errors exit 64 (BSD ``EX_USAGE``),
    not argparse's 2, which means "budget exhausted" in this tool."""

    def error(self, message: str) -> "None":  # type: ignore[override]
        raise CliError(f"{self.prog}: {message}")


_EXIT_CODE_HELP = "exit status: " + ", ".join(
    f"{code} = {meaning}"
    for code, meaning in sorted(EXIT_CODE_MEANINGS.items())
)


def _command(
    sub, name: str, run: str, help: str, json: bool = False
) -> argparse.ArgumentParser:
    """The parser of one command: *run* names the ``module:function``
    that runs it, imported only once this command is parsed."""
    parser = sub.add_parser(name, help=help, epilog=_EXIT_CODE_HELP)
    parser.set_defaults(run=run)
    if json:
        parser.add_argument(
            "--json", action="store_true",
            help="print the result as one JSON line instead of the report",
        )
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="repro",
        description="Line-Up: a complete and automatic linearizability checker",
        epilog=_EXIT_CODE_HELP,
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_ArgumentParser
    )

    p_list = _command(
        sub, "list", "repro.structures.registry:list_command",
        help="show the Table 1 class inventory",
    )
    p_list.add_argument("-v", "--verbose", action="store_true")

    p_check = _command(
        sub, "check", "repro.core.command:check_command",
        help="run the two-phase check on one test",
        json=True,
    )
    p_check.add_argument("cls", metavar="CLASS", help="registry class name")
    _add_test_options(p_check)
    p_check.add_argument(
        "--minimize", action="store_true", help="shrink a failing test first"
    )
    p_check.add_argument(
        "--relaxed", action="store_true",
        help="Section 6 extension: tolerate nondeterministic specs and the "
             "class's documented interference behaviours",
    )
    _add_check_options(p_check)
    _add_swarm_options(p_check)
    _add_robustness_options(p_check)

    p_campaign = _command(
        sub, "campaign", "repro.core.campaign:campaign_command",
        help="RandomCheck campaign (Table 2 rows)",
    )
    p_campaign.add_argument(
        "cls", metavar="CLASS", help="registry class name, or 'all'"
    )
    p_campaign.add_argument("--versions", default="pre,beta")
    p_campaign.add_argument("--samples", type=_count(0), default=4)
    p_campaign.add_argument("--rows", type=_count(1), default=3)
    p_campaign.add_argument("--cols", type=_count(1), default=3)
    p_campaign.add_argument("--schedules", type=_count(1), default=150)
    p_campaign.add_argument("--seed", type=int, default=0)
    _add_engine_argument(p_campaign)
    _add_reduction_option(p_campaign)
    _add_provider_option(p_campaign)
    _add_isolation_options(p_campaign)
    _add_robustness_options(p_campaign)
    _add_trace_dump_option(p_campaign)

    p_resume = _command(
        sub, "resume", "repro.core.command:resume_command",
        help="continue an interrupted check or campaign from its checkpoint",
    )
    p_resume.add_argument(
        "checkpoint", metavar="PATH", help="checkpoint file written by --checkpoint"
    )
    p_resume.add_argument(
        "--deadline", type=_seconds(), metavar="SECONDS",
        help="grant the resumed session a fresh wall-clock budget "
             "(default: the original budget is total across sessions)",
    )

    p_monitor = _command(
        sub, "monitor", "repro.stream.watch:monitor_command",
        help="re-check recorded or dumped JSONL traces against an "
             "explicit sequential model (no execution, no phase 1)",
    )
    p_monitor.add_argument(
        "trace", metavar="TRACE", nargs="+",
        help="JSONL trace files, one history each (a 'lineup live' "
             "recording, or the files --dump-traces writes into the "
             "directory a crash report's trace_dir names)",
    )
    p_monitor.add_argument(
        "--model", metavar="NAME",
        help="sequential model to check against (register, counter, "
             "queue, stack, set, dict); default: the first trace "
             "header's model",
    )
    p_monitor.add_argument(
        "--max-configurations", type=_count(1), metavar="N",
        help="configuration cap per return: what one return's closure "
             "may explore before the file is EXHAUSTED (default: no cap)",
    )
    p_monitor.add_argument(
        "-v", "--verbose", action="store_true",
        help="print a verdict line per trace file",
    )

    p_live = _command(
        sub, "live", "repro.live.runner:live_command",
        help="record N concurrent sessions against a live service over "
             "wall-clock time, then check the recorded trace",
        json=True,
    )
    p_live.add_argument(
        "--url", metavar="HOST:PORT",
        help="check an already-running service instead of spawning the "
             "in-repo reference SUT",
    )
    p_live.add_argument(
        "--variant", choices=("correct", "buggy"), default="correct",
        help="reference-SUT variant to spawn (ignored with --url)",
    )
    p_live.add_argument(
        "--model", choices=("counter", "queue", "register"),
        default="counter",
        help="sequential model (and workload shape) to check against",
    )
    p_live.add_argument(
        "--sessions", type=_count(1), default=4, metavar="N",
        help="concurrent client sessions (default: 4)",
    )
    p_live.add_argument(
        "--ops", type=_count(1), default=25, metavar="N",
        help="operations per session (default: 25)",
    )
    p_live.add_argument(
        "--op-timeout", type=_seconds(), default=1.0, metavar="SECONDS",
        help="per-operation deadline; a timed-out call is recorded as an "
             "indeterminate (pending) operation (default: 1.0)",
    )
    p_live.add_argument(
        "--chaos", default="none", metavar="MODES",
        help="fault injection: comma list of latency, drop, disconnect, "
             "refuse, kill; or 'all' / 'none' (default: none)",
    )
    p_live.add_argument(
        "--chaos-seed", type=int, default=0, metavar="SEED",
        help="seed of the deterministic fault streams (default: 0)",
    )
    p_live.add_argument(
        "--kill-after-events", type=_count(1), default=40, metavar="N",
        help="chaos 'kill': SIGKILL the SUT once N trace events are "
             "recorded (default: 40)",
    )
    p_live.add_argument(
        "--seed", type=int, default=0, metavar="SEED",
        help="workload/backoff randomness seed (default: 0)",
    )
    p_live.add_argument(
        "--trace-out", default="live.trace.jsonl", metavar="FILE",
        help="v2 JSONL trace to record (default: live.trace.jsonl)",
    )
    p_live.add_argument(
        "--race-window", type=_seconds(zero=True), default=0.004,
        metavar="SECONDS",
        help="reference-SUT buggy-variant race window (default: 0.004)",
    )
    p_live.add_argument(
        "--max-configurations", type=_count(1), default=500_000, metavar="N",
        help="configuration cap per return of the offline re-check "
             "(EXHAUSTED; default: 500000)",
    )
    p_live.add_argument(
        "--flush-every-n", type=_count(1), default=1, metavar="N",
        help="flush the trace every N events instead of every event "
             "(a follower may lag up to N events; default: 1)",
    )
    p_live.add_argument(
        "--flush-interval", type=_seconds(zero=True), default=0.0,
        metavar="SECONDS",
        help="with --flush-every-n > 1: also flush any event buffered "
             "longer than this at the next append (default: off)",
    )

    p_watch = _command(
        sub, "watch", "repro.stream.watch:watch_command",
        help="follow a JSONL trace while it is written and keep an "
             "online linearizability verdict (the streaming monitor)",
        json=True,
    )
    p_watch.add_argument(
        "trace", metavar="TRACE",
        help="JSONL trace file (a 'lineup live' recording, possibly "
             "still being written, or one --dump-traces file)",
    )
    p_watch.add_argument(
        "--model", metavar="NAME",
        help="sequential model to check against (register, counter, "
             "queue, stack, set, dict); default: the trace header's model",
    )
    p_watch.add_argument(
        "--follow", "-f", action="store_true",
        help="keep polling for growth until the end marker (or "
             "--idle-timeout); without it, read once to the current end",
    )
    p_watch.add_argument(
        "--lag-budget", type=_seconds(), metavar="SECONDS",
        help="exit LAGGED when unconsumed trace bytes persist this long "
             "(default: no budget)",
    )
    p_watch.add_argument(
        "--idle-timeout", type=_seconds(), metavar="SECONDS",
        help="with --follow: stop after this long without new bytes "
             "(default: wait forever)",
    )
    p_watch.add_argument(
        "--poll-interval", type=_seconds(), default=0.05,
        metavar="SECONDS",
        help="delay between polls when caught up (default: 0.05)",
    )
    p_watch.add_argument(
        "--stats-out", metavar="FILE",
        help="append periodic JSONL observability samples (ingest rate, "
             "frontier, retirement lag, memory high-water) to FILE",
    )
    p_watch.add_argument(
        "--stats-interval", type=_seconds(zero=True), default=1.0,
        metavar="SECONDS",
        help="seconds between stats samples (default: 1.0)",
    )
    p_watch.add_argument(
        "--max-configurations", type=_count(1), default=1_000_000,
        metavar="N",
        help="configuration cap per return: what one return's closure "
             "may explore before its cell is EXHAUSTED (default: 1000000)",
    )

    p_obs = _command(
        sub, "observations", "repro.core.command:observations_command",
        help="phase 1 only: write the observation file",
    )
    p_obs.add_argument("cls", metavar="CLASS")
    _add_test_options(p_obs)
    p_obs.add_argument("--version", choices=("pre", "beta"), default="beta")
    p_obs.add_argument("-o", "--output", metavar="FILE")
    _add_provider_option(p_obs)

    p_repro = _command(
        sub, "reproduce", "repro.evaluation:reproduce_command",
        help="regenerate the paper's evaluation as markdown",
    )
    p_repro.add_argument("--samples", type=_count(0), default=4)
    p_repro.add_argument("--rows", type=_count(1), default=3)
    p_repro.add_argument("--cols", type=_count(1), default=3)
    p_repro.add_argument("--schedules", type=_count(1), default=150)
    p_repro.add_argument("--seed", type=int, default=1)
    p_repro.add_argument("-o", "--output", metavar="FILE")

    return parser


def _print(outcome, json_output: bool) -> None:
    """Print *outcome* once: the JSON document or the text report."""
    if json_output:
        import json

        print(json.dumps(outcome.to_dict()))  # one document, one line
    else:
        print(outcome.render())
    if outcome.resume and os.path.exists(outcome.resume):
        # A run stopped before its first save has nothing to resume;
        # under --json stdout is one document.
        print(
            "state saved; continue with: python -m repro resume "
            f"{outcome.resume}",
            file=sys.stderr if json_output else sys.stdout,
        )
    sys.stdout.flush()


def main(argv: Sequence[str] | None = None) -> int:
    """Parse *argv*, run the command, print its outcome and exit on it."""
    try:
        args = build_parser().parse_args(argv)
        module, _, name = args.run.partition(":")
        command = getattr(importlib.import_module(module), name)
        with SignalStop() as stop:
            outcome = command(args, stop)
        try:
            _print(outcome, getattr(args, "json", False))
        except BrokenPipeError:
            # The reader closed stdout early (``list -v | head``): what
            # it did not read is not wanted, and the exit still says the
            # verdict.  Later writes, the interpreter's final flush
            # included, go to the null device.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if outcome.interrupted:
            return EXIT_INTERRUPTED
        return _VERDICT_EXIT.get(outcome.verdict, EXIT_PASS)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as exc:
        # An unreadable checkpoint or trace, and a model that cannot read
        # its input (name, method or arity unknown), are input errors,
        # not a FAIL; imported here so that no other path pays for them.
        from repro.core.checkpoint import CheckpointError
        from repro.monitor import ModelError, TraceError

        if not isinstance(exc, (CheckpointError, ModelError, TraceError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
