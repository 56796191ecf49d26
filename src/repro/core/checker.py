"""The two-phase Check algorithm (paper Figure 5, Section 3.3).

``check(X, m)`` decides whether the executions of implementation X on
finite test m are consistent with *some* deterministic sequential
specification:

* **Phase 1** enumerates every serial execution of m (unbounded DFS in
  serial mode) and records the full serial histories (set A) and stuck
  serial histories (set B).  If A ∪ B is nondeterministic, FAIL.
* **Phase 2** enumerates concurrent executions (preemption-bounded DFS by
  default, the paper's PB=2; or random sampling) and checks every full
  history against A (Definition 1) and every stuck history against B
  (Definition 2).  Any history without a witness is a FAIL.

Per Theorem 5, a FAIL is a proof that X is linearizable with respect to
*no* deterministic sequential specification; phase 1 runs unbounded so
this completeness guarantee survives the phase-2 preemption bounding
(Section 4.3, last paragraph).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, TYPE_CHECKING

from repro.core.budget import ExplorationBudget, ExplorationControl
from repro.core.harness import Phase1Stats, SystemUnderTest, TestHarness
from repro.core.history import History, SerialHistory
from repro.core.spec import NondeterminismWitness, ObservationSet
from repro.core.testcase import FiniteTest
from repro.core.witness import check_full_history, check_stuck_history
from repro.runtime import (
    DEFAULT_ENGINE,
    Decision,
    DFSStrategy,
    RandomStrategy,
    Scheduler,
    SchedulingStrategy,
    dfs_with_reduction,
)

if TYPE_CHECKING:  # imported lazily at runtime to avoid a module cycle
    from repro.core.checkpoint import Checkpointer, CheckResume
    from repro.monitor.dispatch import MonitorVerdict

__all__ = [
    "CheckConfig",
    "CheckResult",
    "PHASE2_TALLY",
    "Violation",
    "check",
    "check_against_observations",
    "check_with_harness",
    "phase2_tally",
    "restore_phase2_tally",
    "sum_tallies",
]

#: Cap on the passing histories one phase 2 remembers (see ``_run_phase2``);
#: the memo is cleared when full.
_PASS_MEMO_LIMIT = 1 << 15

#: Violation kinds.
NONDETERMINISTIC = "nondeterministic-specification"
NO_FULL_WITNESS = "non-linearizable-history"
NO_STUCK_WITNESS = "non-linearizable-blocking"


@dataclass(frozen=True)
class CheckConfig:
    """Tuning knobs for one ``Check`` run.

    The defaults mirror the paper: exhaustive phase 1, DFS phase 2 with
    preemption bound 2 (the CHESS default the paper uses "except where it
    performed unacceptably slow").  ``phase2_strategy="random"`` switches
    phase 2 to random-walk sampling of ``phase2_executions`` schedules.
    ``max_*_executions`` are safety caps for interactive use; None means
    unbounded (exhaustive within the bound).
    """

    preemption_bound: int | None = 2
    phase2_strategy: str = "dfs"  #: "dfs" or "random"
    #: scheduler engine, one of ``repro.runtime.ENGINES`` (real threads
    #: serialized by lock handoff, or zero-thread generator tasks;
    #: same decision traces).  Only applies to schedulers the check
    #: creates, not to a caller-provided one.
    engine: str = DEFAULT_ENGINE
    phase2_executions: int = 2000  #: sample size when phase2_strategy="random"
    seed: int = 0
    #: a phase 1 cut short by this cap ends the check EXHAUSTED: phase 2
    #: never judges against a partial specification (Theorem 5).
    max_serial_executions: int | None = None
    #: a PASS cut short by this cap stays a PASS, with
    #: ``phase2_complete`` False and a note in the report.
    max_concurrent_executions: int | None = 20_000
    max_steps: int = 20_000
    stop_at_first_violation: bool = True
    #: exploration budget; when tripped, the check stops with verdict
    #: "EXHAUSTED" and partial statistics, resumable from a checkpoint.
    budget: ExplorationBudget | None = None
    #: enable the scheduler watchdog: max seconds a single operation may
    #: run between scheduling points before the execution is classified
    #: divergent.  None (the default) disables the watchdog.  Only applies
    #: to schedulers the check creates, not to a caller-provided one.
    watchdog_seconds: float | None = None
    #: sequential model name (see :func:`repro.monitor.get_model`); a
    #: model selects the monitor backend, which skips phase 1 entirely
    #: and checks each history against this explicit model via
    #: :mod:`repro.monitor` — a PASS then certifies linearizability with
    #: respect to that one model only.  None: the observation backend,
    #: which checks histories against the phase-1 synthesized
    #: specification (Definitions 1/2, complete per Theorem 5).
    model: str | None = None
    #: directory to dump every explored concurrent history into as a
    #: JSONL trace file (:mod:`repro.monitor.trace`); None disables.
    dump_traces: str | None = None
    #: phase-2 schedule-space reduction: ``"none"``, ``"sleep"`` (sleep
    #: sets) or ``"dpor"`` (dynamic partial-order reduction).  Only the
    #: "dfs" strategy supports a reduction; phase 1 is never reduced
    #: (Theorem 5 needs every serial history).
    reduction: str = "none"

    def make_phase2_strategy(self) -> SchedulingStrategy:
        if self.phase2_strategy == "dfs":
            return dfs_with_reduction(self.reduction, self.preemption_bound)
        if self.reduction != "none":
            raise ValueError(
                f"reduction {self.reduction!r} requires the dfs phase-2 "
                f"strategy, not {self.phase2_strategy!r}"
            )
        if self.phase2_strategy == "random":
            return RandomStrategy(self.phase2_executions, seed=self.seed)
        raise ValueError(f"unknown phase2 strategy {self.phase2_strategy!r}")


@dataclass(frozen=True)
class Violation:
    """Evidence that the subject is not deterministically linearizable.

    Exactly one of the payloads is set, depending on ``kind``:

    * :data:`NONDETERMINISTIC` — ``nondeterminism`` holds the two serial
      histories whose common prefix ends in a call (Fig. 5 line 4).
    * :data:`NO_FULL_WITNESS` — ``history`` is a full concurrent history
      with no serial witness in A (line 8).
    * :data:`NO_STUCK_WITNESS` — ``history`` is a stuck concurrent history
      and ``pending_op`` has no stuck serial witness for H[e] (line 13).

    ``decisions`` is the scheduler decision trace of the violating
    execution, replayable with :class:`repro.runtime.ReplayStrategy`.
    """

    kind: str
    test: FiniteTest
    history: History | None = None
    pending_op: Any = None
    nondeterminism: NondeterminismWitness | None = None
    decisions: tuple[Decision, ...] = ()
    #: pre-computed :class:`repro.core.explain.Diagnosis` for violations
    #: found by the monitor backend, which has no observation set to
    #: diagnose against; the report renderer prefers this when present.
    diagnosis: Any = None

    def describe(self) -> str:
        if self.kind == NONDETERMINISTIC:
            assert self.nondeterminism is not None
            return f"serial behaviour is nondeterministic: {self.nondeterminism.describe()}"
        if self.kind == NO_FULL_WITNESS:
            return f"concurrent history has no serial witness: {self.history}"
        return (
            f"stuck operation {self.pending_op} is never allowed to block "
            f"serially, yet blocked in: {self.history}"
        )


@dataclass
class CheckResult:
    """Outcome and statistics of one ``Check(X, m)`` run (Table 2 inputs).

    ``verdict`` is ``"PASS"``, ``"FAIL"``, or ``"EXHAUSTED"`` — the last
    when an exploration budget tripped (or the run was interrupted)
    before any violation was found.  A FAIL always wins over EXHAUSTED:
    per Theorem 5 a violation is a proof regardless of how much of the
    search space was left unexplored.
    """

    verdict: str  #: "PASS", "FAIL" or "EXHAUSTED"
    test: FiniteTest
    violations: list[Violation] = field(default_factory=list)
    observations: ObservationSet | None = None
    phase1: Phase1Stats = field(default_factory=Phase1Stats)
    phase1_seconds: float = 0.0
    phase2_executions: int = 0
    phase2_full: int = 0
    phase2_stuck: int = 0
    #: phase-2 histories the decider actually ran on: an execution whose
    #: history already passed in this run is counted above but not judged
    #: again (equals ``phase2_executions`` when no history repeats).
    phase2_judged: int = 0
    phase2_seconds: float = 0.0
    #: subset of ``phase2_stuck`` that the watchdog cut off (divergent).
    phase2_divergent: int = 0
    #: why exploration stopped early ("deadline", "executions",
    #: "decisions", "interrupted"); None for a completed run.
    exhausted_reason: str | None = None
    #: False when phase 2 stopped before its strategy was exhausted
    #: (budget trip, interrupt, or the legacy max_concurrent cap).
    phase2_complete: bool = True
    #: phase-2 reduction mode the run used ("none", "sleep", "dpor").
    reduction: str = "none"
    #: schedules actually executed in phase 2 (== ``phase2_executions``,
    #: kept separate so reports can show the reduction triple together).
    schedules_explored: int = 0
    #: distinct Mazurkiewicz equivalence classes among the explored
    #: schedules (by canonical happens-before fingerprint).
    equivalence_classes: int = 0
    #: schedules the reduction skipped that an unreduced (but equally
    #: bounded) DFS would have executed; 0 under ``reduction="none"``.
    schedules_pruned: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    @property
    def failed(self) -> bool:
        return self.verdict == "FAIL"

    @property
    def exhausted(self) -> bool:
        return self.verdict == "EXHAUSTED"

    @property
    def violation(self) -> Violation | None:
        return self.violations[0] if self.violations else None


#: The phase-2 counts of one check, named once with their types.  The loop
#: counts them, a checkpoint and a shard lease persist them, a lineage and
#: the swarm merge sum them, and ``--json`` prints them; ``CheckResult``
#: and ``SwarmResult`` hold each one as ``phase2_<name>``.
PHASE2_TALLY: dict[str, type] = {
    "executions": int,
    "full": int,
    "stuck": int,
    "judged": int,
    "divergent": int,
    "seconds": float,
}


def phase2_tally(result: Any) -> dict:
    """*result*'s phase-2 counts, keyed by :data:`PHASE2_TALLY`."""
    return {name: getattr(result, f"phase2_{name}") for name in PHASE2_TALLY}


def restore_phase2_tally(result: Any, counts: dict) -> None:
    """Set *result*'s phase-2 counts from *counts*; a missing one is 0."""
    for name, kind in PHASE2_TALLY.items():
        setattr(result, f"phase2_{name}", kind(counts.get(name) or 0))


def sum_tallies(
    parts: Iterable[dict], names: dict[str, type] = PHASE2_TALLY
) -> dict:
    """The sum of each count in *names* over the dicts *parts*; a missing
    count is 0, so an empty *parts* gives the zero tally."""
    totals = {name: kind() for name, kind in names.items()}
    for part in parts:
        for name, kind in names.items():
            totals[name] += kind(part.get(name) or 0)
    return totals


def check(
    subject: SystemUnderTest,
    test: FiniteTest,
    config: CheckConfig | None = None,
    scheduler: Scheduler | None = None,
    *,
    control: ExplorationControl | None = None,
    checkpointer: "Checkpointer | None" = None,
    resume: "CheckResume | None" = None,
    fingerprints: "Any | None" = None,
    digest: bool = True,
) -> CheckResult:
    """Run the two-phase Check of Figure 5 on one finite test."""
    cfg = config or CheckConfig()
    with TestHarness.from_config(subject, cfg, scheduler) as harness:
        return check_with_harness(
            harness,
            test,
            cfg,
            control=control,
            checkpointer=checkpointer,
            resume=resume,
            fingerprints=fingerprints,
            digest=digest,
        )


def check_with_harness(
    harness: TestHarness,
    test: FiniteTest,
    config: CheckConfig | None = None,
    *,
    control: ExplorationControl | None = None,
    checkpointer: "Checkpointer | None" = None,
    resume: "CheckResume | None" = None,
    fingerprints: "Any | None" = None,
    digest: bool = True,
) -> CheckResult:
    """Like :func:`check` but reusing an existing harness/scheduler.

    *control* carries the exploration budget and stop flag (one is
    derived from ``config.budget`` when absent); *checkpointer*
    periodically persists the exploration frontier; *resume* continues a
    previous partial run parsed from a checkpoint.  *fingerprints* is a
    caller-owned :class:`repro.reduction.FingerprintSet` that phase 2
    populates with the digest of every explored execution — a swarm
    lease hands its shard's set back this way (without it only the
    class *count* survives in the result).  *digest* False, with no
    *fingerprints*, takes no digest at all and leaves
    ``equivalence_classes`` 0: a campaign prints no class count.
    """
    from repro.reduction import FingerprintSet

    cfg = config or CheckConfig()
    control = _control_for(cfg, control)
    if fingerprints is None and digest:
        fingerprints = FingerprintSet()
    if control is not None and resume is not None:
        control.restore(resume.budget_snapshot)

    if cfg.model is not None:
        # Model-based monitoring needs no synthesized specification, so
        # phase 1 is skipped entirely; each phase-2 history is checked
        # directly against the explicit sequential model.
        if checkpointer is not None or resume is not None:
            raise ValueError(
                "the monitor backend does not support checkpoint/resume"
            )
        result = CheckResult(verdict="PASS", test=test)
        _run_phase2(
            harness, test, None, cfg, result,
            control=control, fingerprints=fingerprints,
        )
        return result

    result = _run_phase1(
        harness, test, cfg, control=control, checkpointer=checkpointer, resume=resume
    )
    if not result.passed:
        return result

    # ---- Phase 2: check the concurrent executions against A and B.
    phase2_strategy = None
    if resume is not None and resume.phase == "phase2":
        phase2_strategy = resume.strategy
        restore_phase2_tally(result, resume.phase2)
        if fingerprints is not None:
            fingerprints.update(
                FingerprintSet.from_snapshot(resume.phase2.get("fingerprints"))
            )
    _run_phase2(
        harness,
        test,
        result.observations,
        cfg,
        result,
        control=control,
        checkpointer=checkpointer,
        strategy=phase2_strategy,
        fingerprints=fingerprints,
    )
    return result


def check_against_observations(
    harness: TestHarness,
    test: FiniteTest,
    observations: ObservationSet,
    config: CheckConfig | None = None,
    *,
    control: ExplorationControl | None = None,
    strategy: SchedulingStrategy | None = None,
    fingerprints: "Any | None" = None,
) -> CheckResult:
    """Spec-relative check: phase 2 only, against a *given* specification.

    This is Definition 3 with an explicit specification instead of a
    synthesized one — the setting of the paper's Section 2.2.2 example,
    where the Fig. 4 counter is perfectly consistent with *some*
    deterministic spec ("get poisons the lock") yet violates the intended
    Fig. 3 spec.  The observation set can be hand-written or synthesized
    from a reference implementation's phase 1 (differential checking).

    *strategy* and *fingerprints* let a caller seed the exploration with
    a restored frontier and fingerprint set — the shard workers of
    :mod:`repro.swarm` run exactly this entry point per lease.
    """
    from repro.reduction import FingerprintSet

    cfg = config or CheckConfig()
    result = CheckResult(verdict="PASS", test=test, observations=observations)
    _run_phase2(
        harness,
        test,
        observations,
        cfg,
        result,
        control=_control_for(cfg, control),
        strategy=strategy,
        fingerprints=FingerprintSet() if fingerprints is None else fingerprints,
    )
    return result


def _control_for(
    cfg: CheckConfig, control: ExplorationControl | None
) -> ExplorationControl | None:
    """*control*, or one derived from ``cfg.budget`` when absent."""
    if control is None and cfg.budget is not None:
        control = ExplorationControl(budget=cfg.budget)
    return control


def _run_phase1(
    harness: TestHarness,
    test: FiniteTest,
    cfg: CheckConfig,
    *,
    control: ExplorationControl | None = None,
    checkpointer: "Checkpointer | None" = None,
    resume: "CheckResume | None" = None,
    deterministic: bool = True,
) -> CheckResult:
    """Phase 1 and its gate: synthesize the specification from the serial
    executions and say whether phase 2 may run against it.

    The result's verdict is the gate: ``PASS`` (go on), ``FAIL`` (the
    specification is nondeterministic, Fig. 5 line 4; not asked when
    *deterministic* is False — Section 6) or ``EXHAUSTED`` (the budget or
    an interrupt cut the enumeration short: the observation set is
    partial, and the phase-1 checkpoint is written).
    """
    phase1_base = resume.phase1_seconds if resume is not None else 0.0
    t0 = time.perf_counter()
    serial_strategy = (
        resume.strategy
        if resume is not None and resume.strategy is not None
        else DFSStrategy(preemption_bound=None)
    )

    def state(observations, stats, seconds: float) -> dict:
        from repro.core.checkpoint import build_check_state

        return build_check_state(
            test=test,
            config=cfg,
            phase="phase1",
            strategy=serial_strategy,
            observations=observations,
            phase1=stats,
            phase1_seconds=seconds,
            budget_snapshot=control.snapshot() if control else None,
        )

    if resume is not None and resume.phase == "phase2":
        assert resume.observations is not None
        observations, stats = resume.observations, resume.phase1
        phase1_seconds = phase1_base
    else:
        on_execution = None
        if checkpointer is not None:

            def on_execution(obs, st, strat) -> None:
                checkpointer.tick(
                    lambda: state(obs, st, phase1_base + time.perf_counter() - t0)
                )

        observations, stats = harness.run_serial(
            test,
            max_executions=cfg.max_serial_executions,
            observations=resume.observations if resume is not None else None,
            stats=resume.phase1 if resume is not None else None,
            strategy=serial_strategy,
            control=control,
            on_execution=on_execution,
        )
        phase1_seconds = phase1_base + time.perf_counter() - t0

    result = CheckResult(
        verdict="PASS",
        test=test,
        observations=observations,
        phase1=stats,
        phase1_seconds=phase1_seconds,
    )
    if deterministic and not observations.is_deterministic:
        # Sound even on a partial observation set: the two conflicting
        # serial histories exist regardless of what was left unexplored.
        result.verdict = "FAIL"
        result.violations.append(
            Violation(
                kind=NONDETERMINISTIC,
                test=test,
                nondeterminism=observations.nondeterminism,
            )
        )
    elif _cut_short(result) and checkpointer is not None:
        checkpointer.save(state(observations, stats, phase1_seconds))
    return result


def _cut_short(result: CheckResult) -> bool:
    """End *result* EXHAUSTED if its phase 1 did not finish enumerating.

    Phase 2 against a partial specification could report unsound FAILs (a
    legitimate serial witness may simply not have been enumerated yet),
    whether the budget, an interrupt or ``max_serial_executions`` cut the
    enumeration short.
    """
    stats = result.phase1
    if stats.complete:
        return False
    result.verdict = "EXHAUSTED"
    result.exhausted_reason = stats.stop_reason or "executions"
    result.phase2_complete = False
    return True


def _default_judge(
    cfg: CheckConfig, observations: ObservationSet | None, test: FiniteTest
) -> "Callable[[History, Any], Violation | None]":
    """The judge ``cfg`` asks for.  The deciders are looked up when a
    history is judged, not here, so a test can replace either."""
    if cfg.model is not None:
        from repro.monitor import dispatch, get_model

        model = get_model(cfg.model)
        return lambda history, outcome: monitor_violation(
            dispatch.monitor_history(history, model), model, test, history,
            tuple(outcome.decisions),
        )
    assert observations is not None
    return lambda history, outcome: _observation_violation(
        history, observations, test, outcome
    )


def _run_phase2(
    harness: TestHarness,
    test: FiniteTest,
    observations: ObservationSet | None,
    cfg: CheckConfig,
    result: CheckResult,
    *,
    control: ExplorationControl | None = None,
    checkpointer: "Checkpointer | None" = None,
    strategy: SchedulingStrategy | None = None,
    fingerprints: "Any | None" = None,
    judge: "Callable[[History, Any], Violation | None] | None" = None,
) -> None:
    """Phase 2, the one loop over concurrent executions: count and meter
    every execution, digest it into *fingerprints* when one is given,
    ask *judge* about every history that has not already passed, dump
    what it judged, fold the answer into *result*.

    Without *fingerprints* no execution is digested and
    ``result.equivalence_classes`` is left alone.

    *judge* maps ``(history, outcome)`` to a :class:`Violation` or None.
    It must be a function of the history and of inputs fixed for this
    call (an observation set, a model, a policy): that is what lets a
    passing history be remembered.  The default is the decider of
    ``cfg.model`` (the observation set's without one).
    """
    from repro.reduction import execution_fingerprint

    t1 = time.perf_counter()
    seconds_base = result.phase2_seconds
    if strategy is None:
        strategy = cfg.make_phase2_strategy()
    if judge is None:
        judge = _default_judge(cfg, observations, test)
    result.reduction = cfg.reduction
    if control is not None:
        control.start()

    dump = None
    if cfg.dump_traces:
        from repro.core.checkpoint import test_to_dict
        from repro.monitor.trace import DumpTraceWriter

        # A resumed check keeps the files it already wrote.
        dump = DumpTraceWriter(
            cfg.dump_traces,
            harness.subject.name,
            test_to_dict(test),
            test.n_threads,
            fresh=result.phase2_executions == 0,
        )
    remaining = cfg.max_concurrent_executions
    if remaining is not None:
        remaining = max(0, remaining - result.phase2_executions)

    def make_state() -> dict:
        from repro.core.checkpoint import build_check_state

        return build_check_state(
            test=test,
            config=cfg,
            phase="phase2",
            strategy=strategy,
            observations=observations,
            phase1=result.phase1,
            phase1_seconds=result.phase1_seconds,
            phase2={
                **phase2_tally(result),
                "seconds": seconds_base + time.perf_counter() - t1,
                "fingerprints": (
                    [] if fingerprints is None else fingerprints.snapshot()
                ),
            },
            budget_snapshot=control.snapshot() if control else None,
        )

    # The judge's contract makes the verdict a function of the history, so
    # a history that passed once is not judged again.  Only PASS is
    # remembered: every failing execution builds its own Violation (its
    # history, its decisions).  Local to this call and never checkpointed.
    passed: set[tuple] = set()
    halted: str | None = None
    for history, outcome in harness.explore_concurrent(
        test, strategy, max_executions=remaining
    ):
        result.phase2_executions += 1
        if fingerprints is not None:
            fingerprints.add(execution_fingerprint(outcome))
        if control is not None:
            control.note(outcome)
        if history.stuck:
            result.phase2_stuck += 1
            if history.divergent:
                result.phase2_divergent += 1
        else:
            result.phase2_full += 1
        key = history.key
        if key is not None and key in passed:
            violation = None
        else:
            result.phase2_judged += 1
            violation = judge(history, outcome)
            if violation is None and key is not None:
                if len(passed) >= _PASS_MEMO_LIMIT:
                    passed.clear()
                passed.add(key)
            if dump is not None:
                dump.write(
                    result.phase2_executions,
                    history,
                    verdict=None if violation is None else "FAIL",
                )
        if violation is not None:
            result.verdict = "FAIL"
            result.violations.append(violation)
            if cfg.stop_at_first_violation:
                break
        if control is not None:
            halted = control.halt_reason()
            if halted is not None:
                break
        if checkpointer is not None:
            checkpointer.tick(make_state)
    result.phase2_seconds = seconds_base + time.perf_counter() - t1
    result.schedules_explored = result.phase2_executions
    if fingerprints is not None:
        result.equivalence_classes = len(fingerprints)
    result.schedules_pruned = getattr(strategy, "pruned", 0)
    if halted is not None:
        result.exhausted_reason = halted
        result.phase2_complete = False
        if result.verdict != "FAIL":
            # A FAIL found before the budget tripped remains a proof;
            # otherwise the run is explicitly marked incomplete.
            result.verdict = "EXHAUSTED"
        if checkpointer is not None:
            checkpointer.save(make_state())
    elif strategy.more():
        result.phase2_complete = False


def _observation_violation(
    history: History,
    observations: ObservationSet,
    test: FiniteTest,
    outcome: Any,
) -> Violation | None:
    """Definition 1/2 verdict of one history against the synthesized spec."""
    if history.stuck:
        stuck_check = check_stuck_history(history, observations)
        if not stuck_check.ok:
            return Violation(
                kind=NO_STUCK_WITNESS,
                test=test,
                history=history,
                pending_op=stuck_check.failed,
                decisions=tuple(outcome.decisions),
            )
        return None
    if check_full_history(history, observations) is None:
        return Violation(
            kind=NO_FULL_WITNESS,
            test=test,
            history=history,
            decisions=tuple(outcome.decisions),
        )
    return None


def monitor_violation(
    verdict: "MonitorVerdict",
    model: Any,
    test: FiniteTest,
    history: History,
    decisions: tuple[Decision, ...] = (),
) -> Violation | None:
    """The :class:`Violation` *verdict* stands for, or None when the
    history passed — for the monitor backend and ``lineup monitor`` alike."""
    from repro.core.explain import diagnose_monitor_failure

    if verdict.ok:
        return None
    return Violation(
        kind=NO_STUCK_WITNESS if verdict.failed_pending is not None else NO_FULL_WITNESS,
        test=test,
        history=history,
        pending_op=verdict.failed_pending,
        decisions=decisions,
        diagnosis=diagnose_monitor_failure(verdict, model),
    )
