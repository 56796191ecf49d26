"""The generation loop: coverage-guided scenario search for one class.

``RandomCheck`` (Fig. 8) samples test matrices uniformly at the paper's
3×3 default, so every sample — productive or not — pays the full
``multinomial(9; 3,3,3) = 1680``-interleaving phase-1 bill before a
single concurrent schedule runs.  :func:`run_generation_campaign`
replaces the uniform draw with a fuzzing loop:

1. start from tiny seed tests (one invocation per thread);
2. pick a mutation parent from the corpus, energy-weighted towards
   entries that recently reached new execution equivalence classes;
3. run the candidate through the ordinary two-phase check, harvesting
   its execution fingerprints;
4. admit the candidate to the corpus iff it reached a fingerprint class
   the campaign had not seen (``FingerprintSet.update`` > 0), crediting
   its parent;
5. bucket any violation by root-cause fingerprint so one bug is
   reported once, not once per schedule that exposes it.

The candidate stream is a deterministic function of ``(seed, corpus
history)``: per-candidate PRNGs come from sha256, corpus energy is
measured in candidate indexes (never wall-clock), and the de-dup "seen"
set is persisted, so a resumed campaign replays the exact stream the
interrupted one would have produced and never re-runs a completed
candidate.  Checkpoints are ``kind="generate"`` documents written
through :mod:`repro.core.checkpoint`.

Execution: the loop plans a batch of candidates, hands them to an
executor of :mod:`repro.exec` as ``kind="generate"`` tasks, and folds
the outcomes back in candidate order (so concurrency never perturbs the
corpus evolution).  In-process the batch is one candidate and the budget
is exact.  With a :class:`~repro.exec.WorkerPool` the coverage feedback
within a batch is necessarily stale — the price of parallelism — and the
execution budget is checked between batches, so an isolated campaign can
overshoot its budget by at most one batch.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.command import Outcome, UsageError
from repro.core.budget import ExplorationBudget, ExplorationControl
from repro.core.checker import CheckConfig
from repro.core.campaign import SHARED_PARAMS, campaign_check_config
from repro.core.checkpoint import (
    CheckpointError,
    Checkpointer,
    checkpoint_subject,
    config_to_dict,
    load_checkpoint,
    renew_limits,
    subject_record,
    test_from_dict,
    test_to_dict,
)
from repro.core.report import render_generation_report
from repro.core.testcase import FiniteTest
from repro.core.verdict import worst_verdict
from repro.generate.corpus import Corpus
from repro.generate.mutate import MutationEngine, candidate_rng
from repro.reduction import FingerprintSet
from repro.structures.registry import ClassUnderTest, resolve_class

__all__ = [
    "GenerateConfig",
    "GenerateResume",
    "GenerationReport",
    "generate_command",
    "generate_plan",
    "parse_generate_state",
    "resume_generation",
    "run_generation_campaign",
]


@dataclass(frozen=True)
class GenerateConfig:
    """Knobs of one generation campaign (the ``lineup generate`` flags)."""

    budget: int | None = 2000  #: max SUT executions across all candidates
    seeds: int = 4  #: size of the seed corpus
    seed: int = 0  #: campaign PRNG seed
    max_rows: int = 3  #: matrix growth bound (rows per column)
    max_cols: int = 3  #: matrix growth bound (columns / threads)
    deadline: float | None = None  #: wall-clock cap, seconds
    #: candidates per batch (None = 1 in-process, max(2× workers, 4) pooled)
    batch: int | None = None
    #: consecutive planning dead-ends (duplicate or impossible mutants)
    #: after which the campaign declares the space converged and stops.
    dry_limit: int = 100

    def to_dict(self) -> dict:
        return {
            "budget": self.budget,
            "seeds": self.seeds,
            "seed": self.seed,
            "max_rows": self.max_rows,
            "max_cols": self.max_cols,
            "deadline": self.deadline,
            "batch": self.batch,
            "dry_limit": self.dry_limit,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GenerateConfig":
        return cls(
            budget=data.get("budget"),
            seeds=int(data.get("seeds", 4)),
            seed=int(data.get("seed", 0)),
            max_rows=int(data.get("max_rows", 3)),
            max_cols=int(data.get("max_cols", 3)),
            deadline=data.get("deadline"),
            batch=data.get("batch"),
            dry_limit=int(data.get("dry_limit", 100)),
        )


@dataclass
class GenerationReport:
    """What a generation campaign found, JSON-able for ``--json`` output."""

    class_name: str
    version: str
    candidates: int = 0  #: candidates actually executed
    skipped: int = 0  #: planning dead-ends (duplicate/impossible mutants)
    executions: int = 0  #: SUT executions spent (phase 1 + phase 2)
    corpus_size: int = 0
    classes: int = 0  #: distinct equivalence classes discovered
    #: class-discovery curve: (cumulative executions, classes) at every
    #: point a candidate contributed at least one new class.
    curve: list[tuple[int, int]] = field(default_factory=list)
    #: deduplicated failures, keyed by root-cause fingerprint.
    failures: dict[str, dict] = field(default_factory=dict)
    #: FAILing candidates whose root cause was already known.
    duplicate_failures: int = 0
    #: cumulative executions when the first failure surfaced, or None.
    first_failure_executions: int | None = None
    #: why the campaign stopped early; None also covers a consumed
    #: execution budget ("the budget is the plan", not an interruption)
    #: once at least one candidate was judged.
    stop_reason: str | None = None
    converged: bool = False  #: stopped because mutation ran dry
    verdict: str = "PASS"

    def to_dict(self) -> dict:
        return {
            "class": self.class_name,
            "version": self.version,
            "candidates": self.candidates,
            "skipped": self.skipped,
            "executions": self.executions,
            "corpus_size": self.corpus_size,
            "classes": self.classes,
            "curve": [list(point) for point in self.curve],
            "failures": [
                self.failures[key] for key in sorted(self.failures)
            ],
            "unique_failures": len(self.failures),
            "duplicate_failures": self.duplicate_failures,
            "first_failure_executions": self.first_failure_executions,
            "stop_reason": self.stop_reason,
            "converged": self.converged,
            "verdict": self.verdict,
        }


@dataclass
class GenerateResume:
    """Parsed ``kind="generate"`` checkpoint state (default: a fresh start)."""

    corpus: Corpus = field(default_factory=Corpus)
    fingerprints: FingerprintSet = field(default_factory=FingerprintSet)
    seen: list[FiniteTest] = field(default_factory=list)
    failures: dict[str, dict] = field(default_factory=dict)
    next_candidate: int = 0
    candidates: int = 0
    skipped: int = 0
    executions: int = 0
    duplicate_failures: int = 0
    first_failure_executions: int | None = None
    curve: list[tuple[int, int]] = field(default_factory=list)
    verdicts: list[str] = field(default_factory=list)
    meter_snapshot: dict | None = None


def parse_generate_state(
    document: dict,
) -> tuple[CheckConfig, GenerateConfig, GenerateResume]:
    """Turn a loaded ``kind="generate"`` checkpoint into resumable pieces."""
    from repro.core.checkpoint import config_from_dict

    try:
        config = config_from_dict(document.get("config", {}))
        generate = GenerateConfig.from_dict(document.get("generate", {}))
        resume = GenerateResume(
            corpus=Corpus.from_state(document.get("corpus")),
            fingerprints=FingerprintSet.from_snapshot(
                document.get("fingerprints")
            ),
            seen=[test_from_dict(d) for d in document.get("seen", [])],
            failures=dict(document.get("failures", {})),
            next_candidate=int(document.get("next_candidate", 0)),
            candidates=int(document.get("candidates", 0)),
            skipped=int(document.get("skipped", 0)),
            executions=int(document.get("executions", 0)),
            duplicate_failures=int(document.get("duplicate_failures", 0)),
            first_failure_executions=document.get("first_failure_executions"),
            curve=[tuple(point) for point in document.get("curve", [])],
            verdicts=list(document.get("verdicts", [])),
            meter_snapshot=document.get("meter"),
        )
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"malformed generate checkpoint: {exc}") from exc
    return config, generate, resume


class _Campaign:
    """Mutable state of one generation campaign."""

    def __init__(
        self,
        entry: ClassUnderTest,
        version: str,
        config: CheckConfig,
        generate: GenerateConfig,
        resume: GenerateResume | None,
    ) -> None:
        self.entry = entry
        self.version = version
        self.config = config
        self.generate = generate
        self.engine = MutationEngine(
            entry.invocations,
            max_rows=generate.max_rows,
            max_cols=generate.max_cols,
            init=entry.init,
        )
        if generate.seeds < 1:
            raise ValueError("a generation campaign needs at least one seed")
        self.seeds = self.engine.seed_tests(generate.seeds, generate.seed)
        start = resume or GenerateResume()
        self.corpus = start.corpus
        self.fingerprints = start.fingerprints
        self.seen_list: list[FiniteTest] = list(start.seen)
        self.failures: dict[str, dict] = dict(start.failures)
        self.index = start.next_candidate
        self.candidates = start.candidates
        self.skipped = start.skipped
        self.executions = start.executions
        self.duplicate_failures = start.duplicate_failures
        self.first_failure_executions = start.first_failure_executions
        self.curve: list[tuple[int, int]] = list(start.curve)
        self.verdicts: list[str] = list(start.verdicts)
        self.seen: set[FiniteTest] = set(self.seen_list)
        self.dry = 0

    # -- candidate planning (pure: corpus/seen state + index → test) --

    def plan_one(self) -> "tuple[FiniteTest, int | None, str] | None":
        """Plan the next candidate; None on a dead end.  Advances index."""
        index = self.index
        self.index += 1
        if index < len(self.seeds):
            test = self.seeds[index]
            if test in self.seen:
                return None
            return test, None, "seed"
        rng = candidate_rng(self.generate.seed, index)
        if len(self.corpus):
            parent = self.corpus.select(rng, now=index)
            parent_test = self.corpus.entries[parent].test
        else:  # nothing admitted yet: mutate a seed instead
            parent = None
            parent_test = self.seeds[rng.randrange(len(self.seeds))]
        mutated = self.engine.mutate(parent_test, rng, self.corpus.tests())
        if mutated is None:
            return None
        test, _op = mutated
        if test in self.seen:
            return None
        return test, parent, _op

    def note_planned(self, test: FiniteTest) -> None:
        self.seen.add(test)
        self.seen_list.append(test)

    # -- outcome folding --

    def fold(
        self,
        candidate: int,
        test: FiniteTest,
        parent: int | None,
        verdict: str,
        candidate_executions: int,
        digests: Sequence[str],
        failure: dict | None,
    ) -> None:
        self.candidates += 1
        self.executions += candidate_executions
        self.verdicts.append(verdict)
        new = self.fingerprints.update(digests)
        if new:
            self.corpus.add(test, new, candidate)
            if parent is not None:
                self.corpus.credit(parent, new, candidate)
            self.curve.append((self.executions, len(self.fingerprints)))
        if failure is not None:
            key = failure["fingerprint"]
            if key in self.failures:
                self.failures[key]["count"] += 1
                self.duplicate_failures += 1
            else:
                record = dict(failure)
                record["count"] = 1
                record["candidate"] = candidate
                record["executions"] = self.executions
                self.failures[key] = record
                if self.first_failure_executions is None:
                    self.first_failure_executions = self.executions

    def state(self, control: ExplorationControl) -> dict:
        """The JSON state of a ``kind="generate"`` checkpoint."""
        return {
            "kind": "generate",
            "config": config_to_dict(self.config),
            "generate": self.generate.to_dict(),
            "corpus": self.corpus.to_state(),
            "fingerprints": self.fingerprints.snapshot(),
            "seen": [test_to_dict(test) for test in self.seen_list],
            "failures": self.failures,
            "next_candidate": self.index,
            "candidates": self.candidates,
            "skipped": self.skipped,
            "executions": self.executions,
            "duplicate_failures": self.duplicate_failures,
            "first_failure_executions": self.first_failure_executions,
            "curve": [list(point) for point in self.curve],
            "verdicts": list(self.verdicts),
            "meter": control.snapshot(),
        }

    def report(self, stop_reason: str | None, converged: bool) -> GenerationReport:
        # A consumed execution budget is the normal end of a campaign,
        # not an early stop — the budget *is* the plan.  Unless it ran out
        # before any candidate was judged: a PASS over nothing is EXHAUSTED.
        reported_stop = stop_reason
        if stop_reason == "executions" and self.candidates:
            reported_stop = None
        inputs = list(self.verdicts)
        if self.failures:
            inputs.append("FAIL")
        if reported_stop is not None:
            inputs.append("EXHAUSTED")
        verdict = worst_verdict(inputs)
        if verdict == "EXHAUSTED" and reported_stop is None:
            # Per-candidate EXHAUSTED verdicts fold into the budget story.
            verdict = "PASS" if not self.failures else "FAIL"
        return GenerationReport(
            class_name=self.entry.name,
            version=self.version,
            candidates=self.candidates,
            skipped=self.skipped,
            executions=self.executions,
            corpus_size=len(self.corpus),
            classes=len(self.fingerprints),
            curve=list(self.curve),
            failures=dict(self.failures),
            duplicate_failures=self.duplicate_failures,
            first_failure_executions=self.first_failure_executions,
            stop_reason=reported_stop,
            converged=converged,
            verdict=verdict,
        )


def run_generation_campaign(
    entry: ClassUnderTest,
    version: str,
    config: CheckConfig | None = None,
    generate: GenerateConfig | None = None,
    *,
    scheduler=None,
    control: ExplorationControl | None = None,
    checkpointer: Checkpointer | None = None,
    resume: GenerateResume | None = None,
    pool=None,
    provider: str | None = None,
    on_candidate: Callable[[int, str], None] | None = None,
) -> GenerationReport:
    """Run one coverage-guided generation campaign for *entry*/*version*.

    Candidates run on *pool*, any executor of :mod:`repro.exec`: a
    :class:`~repro.exec.WorkerPool` checks them in sandboxed workers;
    the default, an :class:`~repro.exec.InlineExecutor` on *scheduler*,
    checks them in this process.  Either way the subject is resolved by
    name through the *provider* module.  *resume* restores a parsed
    generate checkpoint — its spent budget carries over, so *control*'s
    budget is a total across sessions; *checkpointer* persists progress
    after every folded batch.  *on_candidate* is a progress hook called
    with (candidate index, verdict) after each fold.
    """
    from contextlib import nullcontext

    from repro.exec import InlineExecutor

    cfg = config or CheckConfig()
    gen = generate or GenerateConfig()
    campaign = _Campaign(entry, version, cfg, gen, resume)

    if control is None:
        control = ExplorationControl(
            budget=ExplorationBudget(
                deadline_seconds=gen.deadline, max_executions=gen.budget
            )
        )
    if resume is not None:
        control.restore(resume.meter_snapshot)
    control.start()

    with (
        InlineExecutor(scheduler) if pool is None else nullcontext(pool)
    ) as executor:
        stop_reason, converged = _run_batches(
            campaign, control, checkpointer, executor, provider, on_candidate
        )

    if checkpointer is not None:
        checkpointer.save(campaign.state(control))
    return campaign.report(stop_reason, converged)


def _run_batches(
    campaign: _Campaign,
    control: ExplorationControl,
    checkpointer: Checkpointer | None,
    executor,
    provider: str | None,
    on_candidate,
) -> tuple[str | None, bool]:
    from repro.exec import TaskSpec

    gen = campaign.generate
    # In this process nothing runs in parallel, so every candidate can be
    # planned from the feedback of the one before it.  A pool needs a
    # batch to keep its workers busy and pays with stale feedback inside
    # the batch — which is why the two candidate streams differ.
    batch_size = gen.batch or (
        1 if executor.inline else max(2 * executor.config.workers, 4)
    )
    config_dict = config_to_dict(campaign.config)
    stop_reason: str | None = None
    converged = False
    while True:
        reason = control.halt_reason()
        if reason is not None:
            stop_reason = reason
            break
        # Plan a batch from the current corpus state.  Feedback within
        # the batch is deferred to fold time, which keeps the stream
        # deterministic regardless of worker completion order.
        batch: list[tuple[int, FiniteTest, int | None]] = []
        while len(batch) < batch_size:
            planned = campaign.plan_one()
            if planned is None:
                campaign.skipped += 1
                campaign.dry += 1
                if campaign.dry >= gen.dry_limit:
                    converged = True
                    break
                continue
            campaign.dry = 0
            test, parent, _op = planned
            campaign.note_planned(test)
            batch.append((campaign.index - 1, test, parent))
        if not batch:
            break
        specs = [
            TaskSpec(
                index=candidate,
                class_name=campaign.entry.name,
                version=campaign.version,
                test=test_to_dict(test),
                config=config_dict,
                provider=provider,
                kind="generate",
            )
            for candidate, test, _parent in batch
        ]
        outcomes, run_stop = executor.run(specs, control=control)
        by_index = {outcome.index: outcome for outcome in outcomes}
        folded_upto = len(batch)
        for position, (candidate, test, parent) in enumerate(batch):
            outcome = by_index.get(candidate)
            if outcome is None:
                # A halted run leaves candidates without outcomes — the
                # one the budget tripped in (its fingerprints are
                # partial, so folding them would make the corpus diverge
                # from an uninterrupted run) and whatever was queued
                # behind it.  Fold stops at the first gap so the corpus
                # evolution stays a prefix of the uninterrupted one
                # (completed stragglers after the gap are re-run).
                folded_upto = position
                break
            summary = outcome.summary or {}
            executions = int(summary.get("executions", 0))
            campaign.fold(
                candidate,
                test,
                parent,
                outcome.verdict,
                executions,
                summary.get("fingerprints") or (),
                summary.get("failure"),
            )
            if not executor.inline and control.meter is not None:
                # Workers meter their own executions; fold them into the
                # campaign budget after the fact (batch-granular).
                control.meter.executions += executions
            if on_candidate is not None:
                on_candidate(candidate, outcome.verdict)
        if folded_upto < len(batch):
            # Roll back the unfolded tail so the resume re-plans it (the
            # campaign contract — execution-level resume granularity is
            # reserved for single checks).
            for _candidate, test, _parent in reversed(batch[folded_upto:]):
                campaign.seen.discard(test)
                campaign.seen_list.pop()
            campaign.index = batch[folded_upto][0]
        if checkpointer is not None:
            checkpointer.tick(lambda: campaign.state(control))
        if run_stop is not None:
            stop_reason = run_stop
            break
        if converged:
            break
    return stop_reason, converged


def generate_command(args: argparse.Namespace, stop) -> Outcome:
    """``generate``: one generation campaign, auto-resumed from
    ``--corpus-dir`` when its corpus checkpoint exists."""
    entry = resolve_class(args.cls, args.provider)
    params = {
        **{key: getattr(args, key) for key in SHARED_PARAMS},
        "budget": args.budget,
        "gen_seeds": args.seeds,
        "max_rows": args.max_rows,
        "max_cols": args.max_cols,
    }
    checkpoint = resume_document = None
    if args.corpus_dir:
        os.makedirs(args.corpus_dir, exist_ok=True)
        checkpoint = os.path.join(args.corpus_dir, "corpus.json")
        if os.path.exists(checkpoint):
            document = load_checkpoint(checkpoint)
            if document.get("kind") != "generate":
                raise UsageError(
                    f"{checkpoint} is not a generation corpus checkpoint"
                )
            stored, version, _provider = checkpoint_subject(document)
            if (stored.name, version) != (entry.name, args.version):
                raise UsageError(
                    f"{checkpoint} belongs to {stored.name}({version}), "
                    f"not {entry.name}({args.version}); pick another "
                    "--corpus-dir"
                )
            # The current command's --budget applies as a total across
            # sessions and its --deadline as a fresh clock; the checkpoint
            # keeps the stream-defining mutation parameters.
            renew_limits(document, args.deadline, budget=args.budget)
            resume_document = document
            print(f"resuming from corpus {checkpoint}")
    return run_generate(
        entry, args.version, params, stop, checkpoint, resume_document, args.json
    )


def resume_generation(document: dict, path: str, stop) -> Outcome:
    entry, version, _provider = checkpoint_subject(document)
    print(f"Resuming generation campaign of {entry.name}({version}) from {path}")
    return run_generate(
        entry, version, document.get("params") or {}, stop, path, document
    )


def generate_plan(plan: "list[tuple[str, str]]", params: dict, stop) -> Outcome:
    """``campaign --generate``: one generation campaign per plan entry,
    exiting on the worst of their verdicts."""
    outcomes: list[Outcome] = []
    for name, version in plan:
        entry = resolve_class(name, params.get("provider"))
        outcomes.append(run_generate(entry, version, params, stop))
        if outcomes[-1].interrupted:
            break
    return Outcome(
        worst_verdict(outcome.verdict for outcome in outcomes),
        lambda: "\n\n".join(outcome.render() for outcome in outcomes),
        interrupted=outcomes[-1].interrupted,
    )


def run_generate(
    entry: ClassUnderTest,
    version: str,
    params: dict,
    stop,
    checkpoint: str | None = None,
    resume_document: dict | None = None,
    json_output: bool = False,
) -> Outcome:
    """Run (or resume) one generation campaign.

    *params* carries the command's knobs (both the GenerateConfig fields
    and the isolation/pool flags); on resume the checkpointed configs win
    and *params* only supplies the pool/provider plumbing.

    Its exit mirrors the campaign's: only a deduplicated failure is a
    failing exit; a fully consumed execution budget is normal completion
    (the budget *is* the plan) once a candidate was judged, while a
    budget spent before that, a deadline/decision stop or an interrupt
    reports the campaign as cut short; a crashed or flaky candidate is
    reported, not a failing exit.
    """
    from repro.exec import open_executor

    provider = params.get("provider")
    resume = None
    if resume_document is not None:
        config, gen, resume = parse_generate_state(resume_document)
    else:
        # The deadline is the campaign's (GenerateConfig), not each
        # candidate check's; candidates dump no traces.
        config = replace(
            campaign_check_config(params), budget=None, dump_traces=None
        )
        gen = GenerateConfig(
            budget=params.get("budget", 2000),
            seeds=params.get("gen_seeds", 4),
            seed=params.get("seed", 0),
            max_rows=params.get("max_rows", 3),
            max_cols=params.get("max_cols", 3),
            deadline=params.get("deadline"),
        )
    # Every folded candidate is persisted: candidates are expensive (a
    # whole two-phase check each), checkpoints are cheap.
    record = {"subject": subject_record(entry.name, version, provider)}
    checkpointer = Checkpointer(
        checkpoint, every_executions=1, extra={**record, "params": params}
    ) if checkpoint else None
    notes = sys.stderr if json_output else sys.stdout
    with open_executor(params, notes) as executor:
        report = run_generation_campaign(
            entry,
            version,
            config,
            gen,
            control=ExplorationControl(
                budget=ExplorationBudget(
                    deadline_seconds=gen.deadline, max_executions=gen.budget
                ),
                stop=stop,
            ),
            checkpointer=checkpointer,
            resume=resume,
            pool=executor,
            provider=provider,
        )
    stopped = report.stop_reason is not None
    return Outcome(
        "FAIL" if report.failures else "EXHAUSTED" if stopped else "PASS",
        lambda: f"generation campaign: {entry.name}({version})\n"
        + render_generation_report(report),
        report.to_dict,
        interrupted=report.stop_reason == "interrupted",
        resume=checkpoint if stopped else None,
    )
