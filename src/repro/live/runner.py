"""The live campaign runner: record against a service, then check.

:func:`run_live` is the whole pipeline: spawn N sessions against a
target service (an address — the runner does not care whether it is the
in-repo reference SUT or something external), record their histories
through the wall-clock recorder, survive whatever the chaos layer and
the real world do to the service, finalize the trace, and check it
offline with the online engine, as ``lineup monitor`` does.

Robustness contract (the point of this module):

* **The campaign never hangs.**  Every transport call carries the
  per-operation deadline, connection retries are bounded, and the
  runner joins sessions against a global deadline derived from those
  bounds; a wedged session is abandoned (daemon thread) and the trace
  is finalized without it.
* **A dying service degrades, not corrupts.**  The first session to
  exhaust its connection backoff trips the drain event; the other
  sessions stop at their next operation boundary, the partial trace is
  finalized with an explicit outcome, and the checker runs on what was
  recorded.
* **Verdicts keep the established precedence** ``FAIL > CRASHED >
  EXHAUSTED > PASS``: a violation found in a partial trace is still a
  proof (FAIL); an *unexpected* service death is CRASHED; a checker
  that hit its configuration cap is EXHAUSTED; only a fully drained,
  fully checked campaign is PASS.  A chaos-injected kill is an
  *expected* death: the verdict comes from the recorded prefix
  (PASS/EXHAUSTED/FAIL), flagged partial — the correct reference SUT
  must never be failed by the faults we ourselves injected.
"""

from __future__ import annotations

import argparse
import random
import threading
import time
from dataclasses import dataclass, field, replace
from functools import partial

from repro.command import Outcome, UsageError
from repro.core.verdict import worst_verdict
from repro.live.chaos import ChaosConfig, ChaosTransport, SutKiller, parse_chaos
from repro.live.recorder import LiveRecorder
from repro.live.refsut import start_refsut_process
from repro.live.session import (
    Session,
    SessionConfig,
    SessionStats,
    make_workload,
)
from repro.live.transport import HttpTransport
from repro.monitor import get_model
from repro.stream import WatchConfig, WatchResult, watch_trace

__all__ = ["LiveConfig", "LiveResult", "render_live_result", "run_live"]


@dataclass(frozen=True)
class LiveConfig:
    """One live campaign: who, how much, under what faults."""

    model: str = "counter"
    sessions: int = 4
    ops: int = 25
    op_timeout: float = 1.0
    seed: int = 0
    chaos: ChaosConfig | None = None
    trace_out: str = "live.trace.jsonl"
    max_configurations: int | None = 500_000
    subject: str | None = None
    #: Trace flush policy (see docs/LIVE.md): every n-th event — plus any
    #: event older than ``flush_interval`` seconds at the next append — is
    #: flushed to the OS and becomes visible to a same-host follower.
    flush_every_n: int = 1
    flush_interval: float = 0.0


@dataclass
class LiveResult:
    """Outcome of one live campaign."""

    verdict: str  #: PASS | FAIL | EXHAUSTED | CRASHED
    trace_path: str
    outcome: str  #: completed | drained | sut-died | killed-by-chaos | interrupted
    partial: bool  #: True when the service did not survive the campaign
    completed: int = 0
    indeterminate: int = 0
    errors: int = 0
    connect_retries: int = 0
    session_stats: list[SessionStats] = field(default_factory=list)
    monitor: WatchResult | None = None
    injected: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "outcome": self.outcome,
            "partial": self.partial,
            "completed": self.completed,
            "indeterminate": self.indeterminate,
            "errors": self.errors,
            "connect_retries": self.connect_retries,
            "injected": {m: n for m, n in sorted(self.injected.items()) if n},
            "trace": self.trace_path,
        }


def _join_deadline(config: LiveConfig) -> float:
    """An upper bound on how long a well-behaved campaign can take."""
    session = SessionConfig(ops=config.ops, op_timeout=config.op_timeout)
    backoff_total = session.backoff_cap * session.connect_attempts
    per_op = config.op_timeout + backoff_total + 1.0
    latency = 0.0
    if config.chaos is not None and config.chaos.enabled("latency"):
        latency = 2 * config.chaos.latency_max
    return 10.0 + config.ops * (per_op + latency)


def run_live(
    host: str,
    port: int,
    config: LiveConfig,
    *,
    sut_process=None,
    should_stop=None,
) -> LiveResult:
    """Run one live campaign against ``host:port`` and check the trace.

    *sut_process* (a :class:`repro.live.refsut.RefSutProcess`, optional)
    is only needed for the chaos ``kill`` mode and for telling an
    expected death from an unexpected one.  *should_stop* is the CLI's
    graceful-shutdown flag: polled between operations; when it trips,
    sessions drain and the partial trace is checked normally, exactly as
    for a service death.
    """
    model = get_model(config.model)
    recorder = LiveRecorder(
        config.trace_out,
        config.sessions,
        subject=config.subject,
        model=config.model,
        flush_every_n=config.flush_every_n,
        flush_interval=config.flush_interval,
    )
    drain = threading.Event()
    session_config = SessionConfig(ops=config.ops, op_timeout=config.op_timeout)
    sessions: list[Session] = []
    transports: list = []
    for index in range(config.sessions):
        transport = HttpTransport(host, port, timeout=config.op_timeout)
        if config.chaos is not None and config.chaos.modes:
            transport = ChaosTransport(
                transport, config.chaos, config.chaos.session_rng(index)
            )
        transports.append(transport)
        sessions.append(
            Session(
                index,
                transport,
                recorder,
                make_workload(
                    config.model,
                    index,
                    random.Random(f"workload:{config.seed}:{index}"),
                ),
                session_config,
                drain,
                rng=random.Random(f"backoff:{config.seed}:{index}"),
            )
        )

    killer = None
    if (
        config.chaos is not None
        and config.chaos.enabled("kill")
        and sut_process is not None
    ):
        killer = SutKiller(
            sut_process, recorder, config.chaos.kill_after_events
        )

    interrupted = False
    for session in sessions:
        session.start()
    if killer is not None:
        killer.start()
    try:
        deadline = _join_deadline(config)
        end = time.monotonic() + deadline
        for session in sessions:
            while session.is_alive():
                session.join(timeout=0.05)
                if should_stop is not None and should_stop() and not drain.is_set():
                    interrupted = True
                    drain.set()
                if session.stats.outcome == "connect-exhausted":
                    # Graceful degradation: one session has proven the
                    # service unreachable; tell the rest to drain.
                    drain.set()
                if time.monotonic() > end:
                    # Belt and braces: abandon wedged sessions rather
                    # than hang the campaign.
                    drain.set()
                    break
    finally:
        if killer is not None:
            killer.stop()
        # One session draining on connect-exhaustion must cascade even if
        # the join loop exited early.
        if any(s.stats.outcome == "connect-exhausted" for s in sessions):
            drain.set()
        for session in sessions:
            session.join(timeout=2.0)

    # -- classify how the campaign ended --------------------------------
    died = sut_process is not None and not sut_process.alive()
    expected_kill = died and getattr(sut_process, "killed_deliberately", False)
    if interrupted:
        outcome = "interrupted"
    elif expected_kill:
        outcome = "killed-by-chaos"
    elif died:
        outcome = "sut-died"
    elif all(s.stats.outcome == "finished" for s in sessions):
        outcome = "completed"
    else:
        outcome = "drained"
    recorder.finalize(outcome)

    result = LiveResult(
        verdict="PASS",
        trace_path=config.trace_out,
        outcome=outcome,
        partial=died or interrupted,
        completed=recorder.completed,
        indeterminate=recorder.indeterminate,
        errors=sum(s.stats.errors for s in sessions),
        connect_retries=sum(s.stats.connect_retries for s in sessions),
        session_stats=[s.stats for s in sessions],
    )
    for transport in transports:
        injected = getattr(transport, "injected", None)
        if injected:
            for mode, count in injected.items():
                result.injected[mode] = result.injected.get(mode, 0) + count
    if killer is not None and killer.fired:
        result.injected["kill"] = result.injected.get("kill", 0) + 1

    # -- check the recorded trace offline, as `lineup monitor` does -----
    result.monitor = watch_trace(
        config.trace_out,
        model,
        WatchConfig(max_configurations=config.max_configurations),
    )

    # One verdict per independent observation; the shared lattice merges.
    verdicts = [result.monitor.verdict]
    if died and not expected_kill:
        verdicts.append("CRASHED")
    result.verdict = worst_verdict(verdicts)
    return result


def render_live_result(result: LiveResult) -> str:
    """The human-readable campaign report."""
    lines = [
        f"live verdict: {result.verdict}"
        + (" (partial: the service did not survive)" if result.partial else ""),
        f"  outcome: {result.outcome}",
        f"  trace: {result.trace_path}",
        f"  operations: {result.completed} completed, "
        f"{result.indeterminate} indeterminate, {result.errors} errors, "
        f"{result.connect_retries} connection retries",
    ]
    if result.injected:
        injected = ", ".join(
            f"{mode}={count}"
            for mode, count in sorted(result.injected.items())
            if count
        )
        lines.append(f"  chaos injected: {injected or 'none'}")
    for stats in result.session_stats:
        lines.append(
            f"  session {stats.index}: {stats.completed} ok, "
            f"{stats.indeterminate} indeterminate ({stats.outcome})"
        )
    if result.monitor is not None:
        stats = result.monitor.stats
        if stats["frontier"] and result.monitor.verdict != "FAIL":
            lines.append(
                f"  indeterminate resolution: {stats['taken']} linearized as "
                f"effective, {stats['frontier'] - stats['taken']} as "
                "never-applied"
            )
        lines.append(
            f"  monitor: {stats['configurations']} configurations, "
            f"{stats['retired']} retired"
        )
    return "\n".join(lines)


def live_command(args: argparse.Namespace, stop) -> Outcome:
    """``live``: record N sessions against a live service (the reference
    SUT this process spawns, or ``--url``), then check the trace."""
    try:
        chaos = parse_chaos(args.chaos, seed=args.chaos_seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if chaos.modes:
        chaos = replace(chaos, kill_after_events=args.kill_after_events)

    proc = None
    if args.url:
        if chaos.enabled("kill"):
            raise UsageError(
                "chaos mode 'kill' needs a SUT spawned by this process; "
                "drop --url or drop 'kill' from --chaos"
            )
        host, _, port_text = args.url.rpartition(":")
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            raise UsageError(f"--url must be HOST:PORT, got {args.url!r}") from None
        subject = args.url
    else:
        proc = start_refsut_process(args.variant, race_window=args.race_window)
        host, port = "127.0.0.1", proc.port
        subject = f"refsut:{args.variant}"

    config = LiveConfig(
        model=args.model,
        sessions=args.sessions,
        ops=args.ops,
        op_timeout=args.op_timeout,
        seed=args.seed,
        chaos=chaos if chaos.modes else None,
        trace_out=args.trace_out,
        max_configurations=args.max_configurations,
        subject=subject,
        flush_every_n=args.flush_every_n,
        flush_interval=args.flush_interval,
    )
    try:
        result = run_live(host, port, config, sut_process=proc, should_stop=stop)
    finally:
        if proc is not None:
            proc.close()
    # A violation in a partial trace is still a proof, and wins.
    return Outcome(
        result.verdict,
        partial(render_live_result, result),
        result.to_dict,
        interrupted=result.verdict != "FAIL" and result.outcome == "interrupted",
    )
