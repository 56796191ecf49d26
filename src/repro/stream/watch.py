"""The watch orchestrator: follow a trace, keep a verdict, stay honest.

:func:`watch_trace` is the single-process loop behind ``lineup watch``:
take a pass of the :class:`~repro.stream.tail.TraceTailer` — the bytes
the file holds now, one bounded batch at a time — feed every complete
line to the :class:`~repro.stream.engine.StreamChecker`, emit stats
between batches, and between passes decide when to stop:

* **FAIL** — the moment a return event loses linearizability; online
  failure is final, no more reading.
* **drained** — the v2 end marker (or, without ``follow``, the current
  end of file) was reached with everything consumed.
* **idle timeout** — in follow mode, no new bytes for ``idle_timeout``
  seconds: the writer is gone (crashed mid-stream if the tail is torn);
  return the verdict over what was seen, marked unfinalized.
* **LAGGED** — the checker could not drain the file for ``lag_budget``
  consecutive seconds.  An online monitor that silently falls behind is
  indistinguishable from one that works, so exceeding the budget is a
  loud verdict, not a warning.

Rotation and truncation (the tailer's exceptions) restart checking from
offset 0 of the current file; a :class:`~repro.stream.engine.PartitionUnsound`
operation restarts from 0 with partitioning off.  Both are possible
precisely because the trace is a file that can be re-read.

Partitioning is in-process: a partitionable model gets one incremental
checker per key inside this one loop (sound by P-compositionality), so
the file is read and decoded once whatever the key count.
"""

from __future__ import annotations

import argparse
import time
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.command import Outcome, UsageError
from repro.core.verdict import worst_verdict
from repro.monitor.incremental import OnlineCounterexample
from repro.monitor.models import ModelError, SequentialModel
from repro.monitor.trace import TraceError
from repro.stream.engine import PartitionUnsound, StreamChecker
from repro.stream.stats import StatsEmitter, maxrss_kb
from repro.stream.tail import TraceRotated, TraceTailer, TraceTruncated

__all__ = [
    "WatchConfig",
    "WatchResult",
    "monitor_command",
    "render_watch_result",
    "watch_command",
    "watch_trace",
]


@dataclass(frozen=True)
class WatchConfig:
    """Knobs of one watch session."""

    follow: bool = False  #: keep polling for growth vs. read-once
    lag_budget: float | None = None  #: max seconds of sustained backlog
    idle_timeout: float | None = None  #: follow mode: give up after quiet
    poll_interval: float = 0.05
    #: per return: the closure of one return may explore this many
    #: configurations, never a lifetime total.
    max_configurations: int | None = 1_000_000
    stats_out: str | None = None  #: JSONL stats path (None = no stats)
    stats_interval: float = 1.0


@dataclass
class WatchResult:
    """What one watch session concluded and what it saw along the way."""

    verdict: str  #: PASS/FAIL/EXHAUSTED/LAGGED
    outcome: str | None  #: the v2 end marker's outcome, when reached
    finalized: bool  #: the end marker was seen and the file drained
    torn: bool  #: the final line was torn when the session ended
    restarts: int  #: rotation/truncation/unsound-partitioning restarts
    lag_exceeded: bool
    partitioned: bool
    counterexample: OnlineCounterexample | None
    stats: dict = field(default_factory=dict)
    elapsed: float = 0.0
    events_per_sec: float = 0.0

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "outcome": self.outcome,
            "finalized": self.finalized,
            "torn": self.torn,
            "restarts": self.restarts,
            "lag_exceeded": self.lag_exceeded,
            "partitioned": self.partitioned,
            "counterexample": (
                self.counterexample.describe() if self.counterexample else None
            ),
            "stats": self.stats,
            "elapsed": self.elapsed,
            "events_per_sec": self.events_per_sec,
        }


def render_watch_result(result: WatchResult, path: str, model: str) -> str:
    """The text report of one watch of *path* against *model*."""
    stats = result.stats
    lines = [
        f"watched {path} against model {model!r}: {result.verdict}",
        f"  {stats.get('events', 0)} events "
        f"({result.events_per_sec:.0f}/s), "
        f"{stats.get('retired', 0)} retired, "
        f"max frontier {stats.get('max_frontier', 0)}, "
        f"max retirement lag {stats.get('max_retirement_lag', 0)}, "
        f"{stats.get('maxrss_kb', 0)} KiB high-water",
    ]
    if result.restarts:
        lines.append(
            f"  restarted {result.restarts}x (rotation/truncation/"
            "unsound partitioning)"
        )
    if not result.finalized:
        torn = " (final line torn — writer died mid-record?)" if result.torn else ""
        lines.append(f"  note: trace is not finalized{torn}")
    if result.outcome is not None:
        lines.append(f"  recording outcome: {result.outcome}")
    if result.counterexample:
        lines += ["", result.counterexample.describe()]
    return "\n".join(lines)


def watch_trace(
    path: str,
    model: SequentialModel,
    config: WatchConfig | None = None,
    stop: Callable[[], bool] | None = None,
) -> WatchResult:
    """Watch one trace file in-process until a stopping condition, or
    until *stop* (polled after every pass) says to."""
    config = config or WatchConfig()
    partition = model.partitionable

    emitter = StatsEmitter(config.stats_out, interval=config.stats_interval)

    def fresh(partition_now: bool) -> tuple:
        checker = StreamChecker(
            model,
            partition=partition_now,
            max_configurations=config.max_configurations,
        )
        emitter.restart()
        return checker, TraceTailer(path)

    checker, tailer = fresh(partition)
    started = time.monotonic()
    last_progress = started
    lag_since: float | None = None
    lag_exceeded = False
    restarts = 0

    try:
        while True:
            try:
                progressed, failed = _feed_pass(tailer, checker, emitter)
            except (TraceRotated, TraceTruncated):
                # The file is no longer the one we consumed: start over on
                # whatever the path names now.
                restarts += 1
                checker, tailer = fresh(partition)
                last_progress = time.monotonic()
                continue
            except PartitionUnsound:
                restarts += 1
                partition = False
                checker, tailer = fresh(False)
                last_progress = time.monotonic()
                continue
            now = time.monotonic()
            if progressed:
                last_progress = now
            if failed or (stop is not None and stop()):
                break
            backlog = tailer.backlog()
            emitter.maybe_emit(checker, backlog)
            if backlog == 0:
                lag_since = None
                if checker.finalized:
                    break
                if not config.follow:
                    break
            else:
                # The budget clock runs while any backlog persists and only
                # a fully drained file resets it: consuming batches while
                # the writer stays ahead is still falling behind.
                if lag_since is None:
                    lag_since = now
                elif (
                    config.lag_budget is not None
                    and now - lag_since > config.lag_budget
                ):
                    lag_exceeded = True
                    break
                if not config.follow and not progressed:
                    break  # only a torn tail remains and nobody will mend it
            if not progressed:
                if (
                    config.follow
                    and config.idle_timeout is not None
                    and now - last_progress > config.idle_timeout
                ):
                    if not tailer.exists:
                        # A PASS over zero events of a file that never
                        # appeared would bless a typo'd path.
                        raise TraceError(
                            f"no such trace file: {path!r} (gave up after "
                            f"{config.idle_timeout}s waiting for it)"
                        )
                    break
                time.sleep(config.poll_interval)
    finally:
        emitter.emit(checker, tailer.backlog())
        emitter.close()
    if not config.follow and not checker.counters.events:
        # Read once, a file without a complete header line is no trace.
        if not tailer.exists:
            raise TraceError(
                f"no such trace file: {path!r} (No such file or directory)"
            )
        raise TraceError(f"trace file {path!r} is empty (no complete header line)")

    verdict = checker.verdict
    if lag_exceeded and verdict == "PASS":
        verdict = "LAGGED"
    return _snapshot(
        verdict, checker, tailer, restarts, lag_exceeded, partition, started
    )


def _feed_pass(
    tailer: TraceTailer, checker: StreamChecker, emitter: StatsEmitter
) -> tuple[bool, bool]:
    """Feed *checker* one pass of *tailer*, batch by batch.

    Returns ``(progressed, failed)``: whether the pass delivered any
    line, and whether one of them lost linearizability — reading stops
    there, within the block that holds the failing line.  What the
    process holds of the backlog at any moment is one batch.
    """
    progressed = False
    with closing(tailer.batches()) as batches:
        for segments in batches:
            try:
                for segment in segments:
                    if not checker.feed(segment.obj):
                        return True, True
            except ModelError as exc:
                where = f"trace file {tailer.path!r} at byte offset {segment.start}"
                raise TraceError(f"{where}: {exc}") from None
            progressed = progressed or bool(segments)
            emitter.maybe_emit(checker, tailer.backlog())
    return progressed, False


def _snapshot(
    verdict: str,
    checker: StreamChecker,
    tailer: TraceTailer,
    restarts: int,
    lag_exceeded: bool,
    partitioned: bool,
    started: float,
) -> WatchResult:
    elapsed = max(time.monotonic() - started, 1e-9)
    stats = checker.stats()
    stats["maxrss_kb"] = maxrss_kb()
    return WatchResult(
        verdict=verdict,
        outcome=checker.outcome,
        finalized=checker.finalized and tailer.backlog() == 0,
        torn=tailer.torn,
        restarts=restarts,
        lag_exceeded=lag_exceeded,
        partitioned=partitioned,
        counterexample=checker.failed,
        stats=stats,
        elapsed=elapsed,
        events_per_sec=checker.counters.events / elapsed,
    )



def trace_model_name(model: str | None, path: str) -> str:
    """*model* (``--model``), defaulting to the model *path*'s header names.

    A file that cannot be read is reported as it is; ``--model`` is named
    only when the header was read and names no model.
    """
    from repro.monitor.trace import read_trace_header

    model = model or read_trace_header(path).live.model
    if model is None:
        raise UsageError(
            "--model NAME is required (the trace header names no model)"
        )
    return model


def watch_command(args: argparse.Namespace, stop) -> Outcome:
    """``watch``: the online check of a (possibly still growing) trace."""
    from repro.monitor.models import get_model

    name = trace_model_name(args.model, args.trace)
    config = WatchConfig(
        follow=args.follow,
        lag_budget=args.lag_budget,
        idle_timeout=args.idle_timeout,
        poll_interval=args.poll_interval,
        max_configurations=args.max_configurations,
        stats_out=args.stats_out,
        stats_interval=args.stats_interval,
    )
    result = watch_trace(args.trace, get_model(name), config, stop)
    return Outcome(
        result.verdict,
        partial(render_watch_result, result, args.trace, name),
        lambda: {"model": name, **result.to_dict()},
        interrupted=stop(),
    )


def monitor_command(args: argparse.Namespace, stop) -> Outcome:
    """``monitor``: offline re-check of finished traces, ``watch`` over
    each file; the first violation is rendered from its whole history."""
    from repro.monitor.models import get_model
    from repro.monitor.trace import read_trace_header

    model = get_model(trace_model_name(args.model, args.trace[0]))
    subject = read_trace_header(args.trace[0]).subject
    print(
        f"Monitoring {len(args.trace)} histories of "
        f"{subject or '(unknown subject)'} against model {model.name!r}"
    )
    config = WatchConfig(max_configurations=args.max_configurations)
    verdicts: list[str] = []
    violation = None
    for path in args.trace:
        result = watch_trace(path, model, config)
        verdicts.append(result.verdict)
        if result.torn:
            print(f"note: {path} ends in a torn line, which is skipped")
        if args.verbose:
            print(f"  {path}: " + {
                "EXHAUSTED": "EXHAUSTED (configuration cap)",
                "PASS": f"OK ({result.stats['configurations']} configurations)",
            }.get(result.verdict, "FAIL"))
        if result.verdict == "FAIL" and violation is None:
            violation = _trace_violation(path, model, result)
    failures, exhausted = verdicts.count("FAIL"), verdicts.count("EXHAUSTED")
    verdict = worst_verdict(verdicts)
    lines = [
        f"verdict: {verdict} ({len(verdicts) - failures - exhausted} ok, "
        f"{failures} violating, {exhausted} exhausted)"
    ]
    if violation is not None:
        lines += ["", violation]
    return Outcome(verdict, lambda: "\n".join(lines))


def _trace_violation(path: str, model: SequentialModel, result: WatchResult) -> str:
    """The violation *result* found in *path*, rendered as ``check``'s."""
    from repro.core.checker import monitor_violation
    from repro.core.checkpoint import test_from_dict
    from repro.core.report import render_violation
    from repro.core.testcase import FiniteTest
    from repro.monitor.dispatch import online_failure
    from repro.monitor.trace import load_trace

    trace = load_trace(path)
    history = trace.histories[0]
    try:
        test = test_from_dict(trace.test)  # None in a live recording
    except Exception:  # noqa: BLE001 - header metadata is advisory
        test = FiniteTest.of(
            [
                [op.invocation for op in history.operations if op.thread == t]
                for t in range(trace.n_threads)
            ]
        )
    verdict = online_failure(
        history, result.counterexample, result.stats["configurations"]
    )
    return render_violation(monitor_violation(verdict, model, test, history))
