"""Evaluation campaigns — the machinery behind Table 2 (Section 5).

The paper's methodology, per class and library version:

1. run ``RandomCheck`` on a uniform sample of 3×3 tests over the class's
   invocation alphabet (Table 1),
2. shrink failing tests to minimal dimension,
3. classify each root cause (bug / intentional nondeterminism /
   intentional nonlinearizability),
4. report phase-1 history counts and times, phase-2 pass/fail counts and
   times, and the preemption bound used.

:func:`run_class_campaign` performs steps 1 and 4 for one class/version;
:func:`campaign_row` adds the curated root-cause columns (step 2/3 were
manual in the paper; here the registry carries the classification and the
minimal witness tests, which :func:`verify_causes` re-validates).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.core.budget import ExplorationControl
from repro.core.checker import CheckConfig, CheckResult, check_with_harness
from repro.core.harness import SystemUnderTest, TestHarness
from repro.core.testcase import sample_tests
from repro.core.verdict import worst_verdict
from repro.runtime import Scheduler
from repro.structures.registry import ClassUnderTest

__all__ = [
    "CampaignRow",
    "TestSummary",
    "campaign_row",
    "campaign_state",
    "campaign_verdict",
    "parse_campaign_state",
    "render_table2",
    "row_from_dict",
    "row_from_summaries",
    "row_to_dict",
    "run_campaign_plan",
    "run_class_campaign",
    "summary_from_outcome",
    "verify_causes",
]


@dataclass(frozen=True)
class TestSummary:
    """The per-test facts a campaign row is computed from.

    Unlike a full :class:`CheckResult` this is JSON-able (no histories or
    observation sets), which is what makes campaign checkpoints small:
    finished tests are carried across a resume as summaries, and the row
    statistics of a resumed campaign equal those of an uninterrupted one.
    """

    verdict: str
    histories: int
    stuck_histories: int
    phase1_seconds: float
    total_seconds: float
    exhausted_reason: str | None = None
    #: check attempts consumed (> 1 when crash retries or flaky-verdict
    #: re-runs happened; see :mod:`repro.exec.supervisor`).
    attempts: int = 1
    #: path of the crash-report artifact for a quarantined (CRASHED) test.
    crash_report: str | None = None
    #: phase-2 reduction statistics (see :class:`CheckResult`).
    schedules_explored: int = 0
    equivalence_classes: int = 0
    schedules_pruned: int = 0

    @classmethod
    def from_result(cls, result: CheckResult) -> "TestSummary":
        return cls(
            verdict=result.verdict,
            histories=result.phase1.histories,
            stuck_histories=result.phase1.stuck_histories,
            phase1_seconds=result.phase1_seconds,
            total_seconds=result.phase1_seconds + result.phase2_seconds,
            exhausted_reason=result.exhausted_reason,
            schedules_explored=result.schedules_explored,
            equivalence_classes=result.equivalence_classes,
            schedules_pruned=result.schedules_pruned,
        )

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "histories": self.histories,
            "stuck_histories": self.stuck_histories,
            "phase1_seconds": self.phase1_seconds,
            "total_seconds": self.total_seconds,
            "exhausted_reason": self.exhausted_reason,
            "attempts": self.attempts,
            "crash_report": self.crash_report,
            "schedules_explored": self.schedules_explored,
            "equivalence_classes": self.equivalence_classes,
            "schedules_pruned": self.schedules_pruned,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TestSummary":
        return cls(
            verdict=data["verdict"],
            histories=int(data["histories"]),
            stuck_histories=int(data["stuck_histories"]),
            phase1_seconds=float(data["phase1_seconds"]),
            total_seconds=float(data["total_seconds"]),
            exhausted_reason=data.get("exhausted_reason"),
            attempts=int(data.get("attempts", 1)),
            crash_report=data.get("crash_report"),
            schedules_explored=int(data.get("schedules_explored", 0)),
            equivalence_classes=int(data.get("equivalence_classes", 0)),
            schedules_pruned=int(data.get("schedules_pruned", 0)),
        )


#: The class a campaign was interrupted in: (class, version, finished
#: tests' summaries by test index, crash-retry counters by test index).
ResumeCurrent = tuple[str, str, dict[int, TestSummary], dict[int, int]]


@dataclass
class CampaignRow:
    """One row of Table 2: a class/version's campaign summary."""

    class_name: str
    version: str
    methods: int
    tests_run: int = 0
    tests_passed: int = 0
    tests_failed: int = 0
    causes_found: tuple[str, ...] = ()
    min_dimensions: dict[str, tuple[int, int]] = field(default_factory=dict)
    histories_avg: float = 0.0
    histories_max: int = 0
    phase1_avg_s: float = 0.0
    phase1_max_s: float = 0.0
    fail_avg_s: float = 0.0
    pass_avg_s: float = 0.0
    preemption_bound: int | None = 2
    stuck_tests: int = 0  #: tests whose phase 1 saw stuck serial histories
    #: tests quarantined after repeatedly crashing their worker (verdict
    #: CRASHED; isolated campaigns only — see :mod:`repro.exec`).
    tests_crashed: int = 0
    #: tests whose FAIL/PASS re-runs disagreed (nondeterministic-verdict).
    tests_nondet: int = 0
    #: why the campaign stopped early ("deadline", "executions",
    #: "decisions", "interrupted"), or None when it ran to completion.
    stop_reason: str | None = None
    #: phase-2 reduction mode the campaign's checks used.
    reduction: str = "none"
    #: summed phase-2 reduction statistics over the row's tests.
    schedules_explored: int = 0
    equivalence_classes: int = 0
    schedules_pruned: int = 0


def row_to_dict(row: CampaignRow) -> dict:
    """JSON-able form of a campaign row (campaign checkpoints)."""
    data = dict(row.__dict__)
    data["causes_found"] = list(row.causes_found)
    data["min_dimensions"] = {
        tag: list(dim) for tag, dim in row.min_dimensions.items()
    }
    return data


def row_from_dict(data: dict) -> CampaignRow:
    data = dict(data)
    data["causes_found"] = tuple(data.get("causes_found", ()))
    data["min_dimensions"] = {
        tag: tuple(dim) for tag, dim in data.get("min_dimensions", {}).items()
    }
    return CampaignRow(**data)


def row_from_summaries(
    entry: ClassUnderTest,
    version: str,
    summaries: Sequence[TestSummary],
    config: CheckConfig,
) -> CampaignRow:
    """Aggregate per-test summaries into a Table 2 row."""
    row = CampaignRow(
        class_name=entry.name,
        version=version,
        methods=entry.method_count,
        preemption_bound=config.preemption_bound,
        reduction=config.reduction,
    )
    fail_times: list[float] = []
    pass_times: list[float] = []
    for summary in summaries:
        row.tests_run += 1
        row.histories_avg += summary.histories
        row.histories_max = max(row.histories_max, summary.histories)
        row.phase1_avg_s += summary.phase1_seconds
        row.phase1_max_s = max(row.phase1_max_s, summary.phase1_seconds)
        row.schedules_explored += summary.schedules_explored
        row.equivalence_classes += summary.equivalence_classes
        row.schedules_pruned += summary.schedules_pruned
        if summary.stuck_histories:
            row.stuck_tests += 1
        if summary.verdict == "FAIL":
            row.tests_failed += 1
            fail_times.append(summary.total_seconds)
        elif summary.verdict == "CRASHED":
            row.tests_crashed += 1
        elif summary.verdict == "nondeterministic-verdict":
            row.tests_nondet += 1
        else:
            row.tests_passed += 1
            pass_times.append(summary.total_seconds)
    if row.tests_run:
        row.histories_avg /= row.tests_run
        row.phase1_avg_s /= row.tests_run
    if fail_times:
        row.fail_avg_s = sum(fail_times) / len(fail_times)
    if pass_times:
        row.pass_avg_s = sum(pass_times) / len(pass_times)
    return row


def campaign_verdict(rows: "Sequence[CampaignRow]") -> str:
    """The campaign-level verdict implied by finished *rows*.

    Each row contributes the verdicts its tests produced (a failed test
    or a confirmed curated cause is a FAIL; quarantines and flaky
    re-runs surface as their own verdicts) and the shared lattice of
    :func:`repro.core.verdict.worst_verdict` merges them.  Only a FAIL
    maps to a failing exit code — a crashed or flaky test is reported,
    not treated as a proven violation.
    """
    verdicts: list[str] = []
    for row in rows:
        if row.tests_failed or row.causes_found:
            verdicts.append("FAIL")
        if row.tests_nondet:
            verdicts.append("nondeterministic-verdict")
        if row.tests_crashed:
            verdicts.append("CRASHED")
        if row.stop_reason is not None:
            verdicts.append("EXHAUSTED")
        if row.tests_passed:
            verdicts.append("PASS")
    return worst_verdict(verdicts)


def run_class_campaign(
    entry: ClassUnderTest,
    version: str,
    samples: int = 20,
    rows: int = 3,
    cols: int = 3,
    seed: int = 0,
    config: CheckConfig | None = None,
    scheduler: Scheduler | None = None,
    *,
    executor=None,
    provider: str | None = None,
    control: ExplorationControl | None = None,
    completed: "dict[int, TestSummary] | None" = None,
    prior_retries: "dict[int, int] | None" = None,
    on_outcome: "Callable[[object, dict[int, int]], None] | None" = None,
) -> tuple[CampaignRow, dict[int, TestSummary]]:
    """RandomCheck campaign for one class/version, with Table 2 stats.

    Each sampled test is one task on *executor*: a
    :class:`repro.exec.WorkerPool` runs it in a sandboxed child process
    (a test that kills its process is quarantined with a ``CRASHED``
    verdict instead of ending the campaign); the default, a
    :class:`repro.exec.InlineExecutor` on *scheduler*, runs it here.
    Either way the subject is resolved by name — ``entry.name`` through
    the *provider* module's ``get_class`` (default: the Table 1 registry).

    The test list is a deterministic function of (alphabet, rows, cols,
    samples, seed), so a resumed campaign runs exactly the tests the
    interrupted one had left and aggregates to the same row: *completed*
    maps test index → summary for the tests finished before (keyed by
    index because pooled outcomes complete out of order) and
    *prior_retries* restores their crash-retry counters.  *on_outcome*
    is the checkpoint hook, called with each raw outcome and the
    executor's retry-counter map.  *control* imposes a campaign-wide
    budget; a test it cuts short is not summarized, so the resume
    re-runs that test from scratch.

    Returns the aggregated row plus the per-index summary map.
    """
    from contextlib import nullcontext

    from repro.core.checkpoint import config_to_dict, test_to_dict
    from repro.exec import InlineExecutor, TaskSpec

    cfg = config or CheckConfig()
    if control is None and cfg.budget is not None:
        control = ExplorationControl(budget=cfg.budget)
    tests = list(
        sample_tests(
            list(entry.invocations), rows, cols, samples, seed=seed,
            init=entry.init,
        )
    )
    summaries: dict[int, TestSummary] = dict(completed or {})
    config_data = config_to_dict(cfg)
    specs = [
        TaskSpec(
            index=index,
            class_name=entry.name,
            version=version,
            test=test_to_dict(test),
            config=config_data,
            provider=provider,
        )
        for index, test in enumerate(tests)
        if index not in summaries
    ]
    stop_reason: str | None = None
    if specs:
        with (
            InlineExecutor(scheduler) if executor is None
            else nullcontext(executor)
        ) as runner:
            outcomes, stop_reason = runner.run(
                specs,
                prior_retries=prior_retries,
                control=control,
                on_outcome=on_outcome,
            )
        for outcome in outcomes:
            summaries[outcome.index] = summary_from_outcome(outcome)
    row = row_from_summaries(
        entry,
        version,
        [summaries[index] for index in sorted(summaries)],
        cfg,
    )
    if stop_reason is None and len(summaries) < len(tests):
        stop_reason = "incomplete"  # pragma: no cover - defensive
    row.stop_reason = stop_reason
    return row, summaries


def summary_from_outcome(outcome) -> TestSummary:
    """Convert an executor's :class:`~repro.exec.TaskOutcome` to a summary.

    Quarantined tests never produced statistics, so their summary is all
    zeros apart from the verdict and the crash-report pointer; completed
    tests reuse the task's serialized summary with the *settled* verdict
    (which may differ from the decisive attempt's own — the flaky-verdict
    guard can settle on ``nondeterministic-verdict``).
    """
    attempts = max(1, len(outcome.verdicts) + len(outcome.crashes))
    if outcome.summary is None:
        return TestSummary(
            verdict=outcome.verdict,
            histories=0,
            stuck_histories=0,
            phase1_seconds=0.0,
            total_seconds=0.0,
            attempts=attempts,
            crash_report=outcome.crash_report,
        )
    summary = TestSummary.from_dict(outcome.summary)
    return replace(
        summary,
        verdict=outcome.verdict,
        attempts=attempts,
        crash_report=outcome.crash_report,
    )


def campaign_state(
    plan: "Sequence[tuple[str, str]]",
    rows: "Sequence[CampaignRow]",
    current: "tuple[str, str, dict[int, TestSummary]] | None",
    params: dict,
    control: ExplorationControl,
    retries: "dict[int, int] | None" = None,
) -> dict:
    """Build the ``kind="campaign"`` checkpoint document.

    *current* is the class in progress with its finished tests' summaries
    keyed by test index; *retries* persists the crash-retry counters so a
    resumed test does not get a fresh retry allowance.
    """
    state: dict = {
        "kind": "campaign",
        "plan": [list(item) for item in plan],
        "finished_rows": [row_to_dict(row) for row in rows],
        "current": None,
        "params": params,
        "budget": control.meter.snapshot() if control.meter is not None else None,
    }
    if current is not None:
        name, version, summaries = current
        state["current"] = {
            "cls": name,
            "version": version,
            "summaries": {
                str(index): summary.to_dict()
                for index, summary in sorted(summaries.items())
            },
        }
        if retries:
            state["current"]["retries"] = {
                str(index): count for index, count in sorted(retries.items())
            }
    return state


def parse_campaign_state(
    document: dict,
) -> tuple[list[tuple[str, str]], list[CampaignRow], dict, ResumeCurrent | None]:
    """Turn a loaded ``kind="campaign"`` checkpoint into resumable pieces.

    Returns the plan, the finished rows, the stored parameters and the
    class in progress — the ``resume_current`` of
    :func:`run_campaign_plan` — or None when no class was in progress.
    Checkpoints written before campaigns shared one driver stored an
    in-process campaign's summaries as a list (tests finished in order,
    so position was the index); those still load.
    """
    from repro.core.checkpoint import CheckpointError

    plan = [
        (str(name), str(version)) for name, version in document.get("plan", [])
    ]
    if not plan:
        raise CheckpointError("campaign checkpoint has an empty plan")
    params = document.get("params") or {}
    for key in ("samples", "rows", "cols", "schedules", "seed"):
        if key not in params:
            raise CheckpointError(f"campaign checkpoint lacks parameter {key!r}")
    rows = [row_from_dict(data) for data in document.get("finished_rows", [])]
    current = document.get("current")
    if not current:
        return plan, rows, params, None
    saved = current.get("summaries") or {}
    summaries = {
        int(index): TestSummary.from_dict(data)
        for index, data in (
            saved.items() if isinstance(saved, dict) else enumerate(saved)
        )
    }
    retries = {
        int(index): int(count)
        for index, count in (current.get("retries") or {}).items()
    }
    return plan, rows, params, (
        current["cls"], current["version"], summaries, retries
    )


def run_campaign_plan(
    plan: "Sequence[tuple[str, str]]",
    params: dict,
    config: CheckConfig,
    executor,
    *,
    resolve: "Callable[[str], ClassUnderTest]",
    control: ExplorationControl,
    checkpointer=None,
    finished_rows: "Sequence[CampaignRow]" = (),
    resume_current: ResumeCurrent | None = None,
) -> tuple[list[CampaignRow], str | None, list[str]]:
    """Run (or resume) a campaign plan; the one driver for every executor.

    *plan* is the ordered (class, version) work list; entries matching a
    row in *finished_rows* are skipped; *resume_current* (see
    :func:`parse_campaign_state`) carries the summaries and retry
    counters of the class a previous session was interrupted in, so only
    its remaining tests run.  *params* supplies the sampling parameters
    and is stored in every checkpoint; *resolve* maps a class name to its
    registry entry.

    Returns the finished rows, the reason the plan stopped early (or
    None), and the crash-report paths of quarantined tests.
    """
    rows = list(finished_rows)
    done = {(row.class_name, row.version) for row in rows}
    quarantined: list[str] = []
    stop_reason: str | None = None

    def save(current=None, retries=None) -> None:
        if checkpointer is not None:
            checkpointer.save(
                campaign_state(plan, rows, current, params, control, retries)
            )

    for name, version in plan:
        if (name, version) in done:
            continue
        entry = resolve(name)
        latest: dict = {"summaries": {}, "retries": {}}
        if resume_current is not None and resume_current[:2] == (name, version):
            latest["summaries"] = dict(resume_current[2])
            latest["retries"] = dict(resume_current[3])
        resume_current = None  # applies to the first pending entry only

        def on_outcome(outcome, retry_map):
            latest["summaries"][outcome.index] = summary_from_outcome(outcome)
            latest["retries"] = dict(retry_map)
            if checkpointer is not None:
                checkpointer.tick(
                    lambda: campaign_state(
                        plan, rows, (name, version, latest["summaries"]),
                        params, control, latest["retries"],
                    )
                )

        row, summaries = run_class_campaign(
            entry,
            version,
            samples=params["samples"],
            rows=params["rows"],
            cols=params["cols"],
            seed=params["seed"],
            config=config,
            executor=executor,
            provider=params.get("provider"),
            control=control,
            completed=latest["summaries"],
            prior_retries=latest["retries"],
            on_outcome=on_outcome,
        )
        quarantined.extend(
            summary.crash_report
            for _, summary in sorted(summaries.items())
            if summary.crash_report
        )
        if row.stop_reason is not None:
            stop_reason = row.stop_reason
            save((name, version, summaries), latest["retries"])
            break
        if executor.inline:
            # The curated root-cause columns (cheap, deterministic).  They
            # run the subject in this very process, which is what a
            # sandboxing executor exists to avoid.
            row.causes_found, row.min_dimensions = verify_causes(
                entry,
                version,
                CheckConfig(
                    engine=config.engine,
                    watchdog_seconds=config.watchdog_seconds,
                ),
            )
        rows.append(row)
        done.add((name, version))
        save()
    return rows, stop_reason, quarantined


def verify_causes(
    entry: ClassUnderTest,
    version: str,
    config: CheckConfig | None = None,
    scheduler: Scheduler | None = None,
) -> tuple[tuple[str, ...], dict[str, tuple[int, int]]]:
    """Re-validate the curated minimal witness tests (Table 2 columns
    "root causes" and "minimal dimension")."""
    cfg = config or CheckConfig()
    found: list[str] = []
    dimensions: dict[str, tuple[int, int]] = {}
    subject = SystemUnderTest(entry.factory(version), f"{entry.name}({version})")
    with TestHarness.from_config(subject, cfg, scheduler) as harness:
        for cause in entry.causes_for(version):
            if cause.witness_test is None:
                continue
            result = check_with_harness(harness, cause.witness_test, cfg)
            if result.failed:
                found.append(cause.tag)
                dimensions[cause.tag] = cause.witness_test.dimension
    return tuple(found), dimensions


def campaign_row(
    entry: ClassUnderTest,
    version: str,
    samples: int = 20,
    rows: int = 3,
    cols: int = 3,
    seed: int = 0,
    config: CheckConfig | None = None,
    scheduler: Scheduler | None = None,
    witness_config: CheckConfig | None = None,
) -> CampaignRow:
    """Full Table 2 row: random campaign plus curated cause validation.

    The random campaign honours *config* (typically sampled phase 2 for
    speed); the curated minimal witnesses are re-validated with
    *witness_config*, defaulting to the exhaustive PB-2 checker so the
    per-cause columns never depend on sampling luck.
    """
    row, _summaries = run_class_campaign(
        entry, version, samples, rows, cols, seed, config, scheduler
    )
    row.causes_found, row.min_dimensions = verify_causes(
        entry, version, witness_config or CheckConfig(), scheduler
    )
    return row


def render_table2(rows: list[CampaignRow]) -> str:
    """Format campaign rows the way the paper's Table 2 reads."""
    header = (
        f"{'Class':26s} {'ver':4s} {'causes':8s} {'dim':8s} "
        f"{'hist avg':>8s} {'hist max':>8s} {'p1 avg':>8s} "
        f"{'fail':>4s} {'pass':>4s} {'crash':>5s} "
        f"{'t-fail':>7s} {'t-pass':>7s} "
        f"{'sched':>7s} {'pruned':>7s} {'PB':>3s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        dims = ",".join(
            f"{r}x{c}" for r, c in sorted(set(row.min_dimensions.values()))
        )
        pb = "-" if row.preemption_bound is None else str(row.preemption_bound)
        lines.append(
            f"{row.class_name:26s} {row.version:4s} "
            f"{','.join(row.causes_found) or '-':8s} {dims or '-':8s} "
            f"{row.histories_avg:8.1f} {row.histories_max:8d} "
            f"{row.phase1_avg_s * 1000:7.1f}m "
            f"{row.tests_failed:4d} {row.tests_passed:4d} "
            f"{row.tests_crashed:5d} "
            f"{row.fail_avg_s * 1000:6.1f}m {row.pass_avg_s * 1000:6.1f}m "
            f"{row.schedules_explored:7d} {row.schedules_pruned:7d} {pb:>3s}"
        )
    return "\n".join(lines)
