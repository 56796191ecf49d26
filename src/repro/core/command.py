"""The ``check``, ``observations`` and ``resume`` commands.

Each takes the parsed command line and the stop flag and answers a
:class:`repro.command.Outcome` (see :mod:`repro.cli`).  ``check --shards``
hands over to :func:`repro.swarm.runner.swarm_command`; ``resume``
re-enters the runner of the command that wrote the checkpoint.
"""

from __future__ import annotations

import argparse
from functools import partial

from repro.command import Outcome, UsageError
from repro.core.budget import ExplorationBudget, ExplorationControl
from repro.core.checker import CheckConfig, CheckResult, check
from repro.core.checkpoint import (
    Checkpointer,
    checkpoint_subject,
    load_checkpoint,
    parse_check_state,
    renew_limits,
    subject_record,
)
from repro.core.harness import SystemUnderTest, TestHarness
from repro.core.report import check_result_to_dict, render_check_result
from repro.core.testcase import FiniteTest
from repro.structures.registry import resolve_class

__all__ = [
    "check_command",
    "config_from_args",
    "observations_command",
    "resume_command",
]


def config_from_args(args: argparse.Namespace) -> CheckConfig:
    """The check configuration ``check``'s flags ask for."""
    if args.reduction != "none" and args.strategy != "dfs":
        raise UsageError(f"--reduction {args.reduction} requires --strategy dfs")
    return CheckConfig(
        preemption_bound=None if args.preemption_bound < 0 else args.preemption_bound,
        phase2_strategy=args.strategy,
        phase2_executions=args.schedules,
        seed=args.seed,
        max_concurrent_executions=args.max_executions,
        budget=(
            None if args.deadline is None
            else ExplorationBudget(deadline_seconds=args.deadline)
        ),
        watchdog_seconds=args.watchdog,
        model=args.model,
        engine=args.engine,
        dump_traces=args.dump_traces,
        reduction=args.reduction,
    )


def _resolve_test(args: argparse.Namespace, entry) -> FiniteTest:
    if args.cause:
        cause = next((c for c in entry.causes if c.tag == args.cause), None)
        if cause is None or cause.witness_test is None:
            raise UsageError(
                f"{entry.name} has no curated test for cause {args.cause!r}"
            )
        return cause.witness_test
    if not args.test:
        raise UsageError("provide --test or --cause")
    return FiniteTest.of(args.test, init=args.init, final=args.final)


def _check_outcome(result: CheckResult, checkpoint: str | None) -> Outcome:
    # A FAIL found before the interrupt is still a proof, and wins.
    return Outcome(
        result.verdict,
        partial(render_check_result, result),
        partial(check_result_to_dict, result),
        interrupted=result.exhausted and result.exhausted_reason == "interrupted",
        resume=checkpoint if result.exhausted else None,
    )


def check_command(args: argparse.Namespace, stop) -> Outcome:
    """``check``: the two-phase check of one test (or a sharded one).

    ``--model`` selects the monitor backend, ``--relaxed`` the Section 6
    extension (nondeterministic specifications plus the class's
    documented interference rules); neither checkpoints.
    """
    entry = resolve_class(args.cls, args.provider)
    test = _resolve_test(args, entry)
    config = config_from_args(args)
    if args.shards:
        from repro.swarm.runner import swarm_command

        return swarm_command(args, entry, test, config, stop)
    if config.model is not None:
        if args.checkpoint:
            raise UsageError(
                "--model (the monitor backend) does not support --checkpoint "
                "(there is no phase-1 state to resume)"
            )
        if args.relaxed:
            raise UsageError(
                "--model (the monitor backend) is incompatible with --relaxed"
            )
    if args.relaxed:
        if args.checkpoint:
            raise UsageError(
                "--checkpoint is not supported with --relaxed (a relaxed "
                "run has no resumable state; bound it with --deadline)"
            )
        if args.minimize:
            raise UsageError(
                "--minimize is not supported with --relaxed (the shrinker "
                "re-checks candidates strictly)"
            )
    subject = SystemUnderTest(
        entry.factory(args.version), f"{entry.name}({args.version})"
    )
    if not args.json:  # --json prints one document
        print(f"Checking {entry.name}({args.version}) on:")
        print(test.render_matrix())
        print()
    if args.relaxed:
        from repro.core.relaxed import DOTNET_POLICIES, InterferencePolicy
        from repro.core.relaxed import check_relaxed

        # The documented .NET interference behaviours of this class, if any.
        policy = DOTNET_POLICIES.get(entry.name, InterferencePolicy())
        control = ExplorationControl(budget=config.budget, stop=stop)
        with TestHarness.from_config(subject, config) as harness:
            result = check_relaxed(harness, test, config, policy, control=control)
    else:
        result = _check(
            subject, (entry.name, args.version, args.provider), test, config,
            stop, args.checkpoint,
        )
    outcome = _check_outcome(result, args.checkpoint)
    if result.failed and args.minimize:
        from repro.core.autocheck import minimize_failing_test

        if not args.json:
            print("minimizing the failing test ...")
        minimized, result = minimize_failing_test(subject, test, config=config)
        if not args.json:
            print(f"minimal failing dimension: {minimized.dimension}")
            print()
        outcome.render = partial(render_check_result, result)
        outcome.to_dict = partial(check_result_to_dict, result)
    return outcome


def observations_command(args: argparse.Namespace, stop) -> Outcome:
    """``observations``: phase 1 only, written as the Fig. 7 file."""
    from repro.core.observations import observations_to_xml, save_observations

    entry = resolve_class(args.cls, args.provider)
    test = _resolve_test(args, entry)
    subject = SystemUnderTest(
        entry.factory(args.version), f"{entry.name}({args.version})"
    )
    with TestHarness(subject) as harness:
        observations, stats = harness.run_serial(test)
    if not args.output:
        return Outcome("PASS", partial(observations_to_xml, observations))
    save_observations(observations, args.output)
    return Outcome(
        "PASS",
        lambda: f"wrote {len(observations)} serial histories "
        f"({stats.executions} executions) to {args.output}",
    )


def resume_command(args: argparse.Namespace, stop) -> Outcome:
    """``resume``: re-enter the runner of the command that wrote the
    checkpoint, after an optional fresh ``--deadline``."""
    path = args.checkpoint
    document = load_checkpoint(path)
    kind = document["kind"]
    if kind == "shard-result":
        raise UsageError(
            f"{path} is a swarm shard-result file (one shard of a sharded "
            "check); resume the swarm checkpoint that lists it, or a "
            "quarantined shard's shard-N-tM.checkpoint.json named in its "
            "crash report"
        )
    if args.deadline is not None:
        renew_limits(document, args.deadline)
    if kind == "campaign":
        from repro.core.campaign import resume_campaign as resume
    elif kind == "swarm":
        from repro.swarm.runner import resume_swarm as resume
    else:
        resume = _resume_check
    return resume(document, path, stop)


def _resume_check(document: dict, path: str, stop) -> Outcome:
    entry, version, provider = checkpoint_subject(document)
    test, config, resume = parse_check_state(document)
    print(
        f"Resuming check of {entry.name}({version}) from {path} "
        f"(interrupted in {resume.phase})"
    )
    print(test.render_matrix())
    print()
    subject = SystemUnderTest(entry.factory(version), f"{entry.name}({version})")
    result = _check(
        subject, (entry.name, version, provider), test, config, stop, path, resume
    )
    return _check_outcome(result, path)


def _check(subject, record, test, config, stop, checkpoint, resume=None):
    """The strict two-phase check, checkpointed to *checkpoint* (if any)
    with the ``(class, version, provider)`` *record* resume rebuilds."""
    return check(
        subject, test, config,
        control=ExplorationControl(budget=config.budget, stop=stop),
        checkpointer=(
            Checkpointer(checkpoint, extra={"subject": subject_record(*record)})
            if checkpoint else None
        ),
        resume=resume,
    )
