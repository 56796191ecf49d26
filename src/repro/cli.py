"""Command-line interface: ``python -m repro <command>``.

Line-Up as a tool, mirroring how the paper's authors drove it:

* ``list`` — print the Table 1 inventory (classes, versions, alphabets).
* ``check`` — run the two-phase check of one finite test against a
  registry class, e.g.::

      python -m repro check ConcurrentQueue --version pre \\
          --test "Enqueue(200); TryDequeue | Enqueue(400); TryDequeue"

  Columns are separated by ``|``, operations by ``;``, and arguments are
  Python literals.  ``--cause D`` uses the curated minimal witness of a
  Table 2 root cause instead of ``--test``.
* ``campaign`` — the RandomCheck campaign (a Table 2 row) for one class
  or every class.
* ``observations`` — run phase 1 only and write the Fig. 7 observation
  file.
* ``resume`` — continue an interrupted ``check`` or ``campaign`` from a
  ``--checkpoint`` file.
* ``monitor`` — re-check a dumped JSONL trace against an explicit
  sequential model (no execution).
* ``live`` — record N concurrent sessions against a live service over
  wall-clock time (optionally under chaos fault injection) and check
  the recorded v2 trace; see :mod:`repro.live`.
* ``watch`` — follow a JSONL trace *while it is being written* and keep
  an online linearizability verdict at traffic rate; see
  :mod:`repro.stream` and docs/STREAMING.md.

Long runs are made interruptible: ``--deadline SECONDS`` bounds the
exploration (stopping with an explicit EXHAUSTED verdict and partial
statistics), ``--checkpoint PATH`` periodically persists the exploration
frontier, and SIGINT/SIGTERM trigger a graceful shutdown that flushes the
checkpoint and prints the partial report.

``campaign --isolate`` runs each test in a sandboxed worker process
(see :mod:`repro.exec`): a hostile subject can kill its worker, never the
campaign — the test is retried and eventually quarantined with a
``CRASHED`` verdict and a crash-report artifact.

Exit status: 0 = PASS, 1 = violation found, 2 = exploration budget
exhausted, 64 = usage error, 70 = every test crashed (isolated
campaigns) or the live service died unexpectedly, 75 = the online watch
fell behind the writer past the lag budget, 130 = interrupted
(SIGINT/SIGTERM).  :data:`EXIT_CODE_MEANINGS` is the single source of
truth for this contract.
"""

from __future__ import annotations

import argparse
import ast
import signal
import sys
import threading
from typing import Sequence

from repro.core import (
    DOTNET_POLICIES,
    CheckConfig,
    FiniteTest,
    InterferencePolicy,
    Invocation,
    SystemUnderTest,
    TestHarness,
    check,
    check_relaxed,
    minimize_failing_test,
    render_check_result,
)
from repro.core.budget import BudgetMeter, ExplorationBudget, ExplorationControl
from repro.core.campaign import (
    campaign_verdict,
    parse_campaign_state,
    render_table2,
    run_campaign_plan,
)
from repro.core.checkpoint import (
    CheckpointError,
    Checkpointer,
    load_checkpoint,
    parse_check_state,
)
from repro.core.fileio import atomic_write_text
from repro.core.observations import observations_to_xml
from repro.runtime import DEFAULT_ENGINE, ENGINES
from repro.structures import REGISTRY, ROOT_CAUSES, get_class

__all__ = ["main"]

#: Exit codes (documented in the module docstring and ``--help``).
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_EXHAUSTED = 2
EXIT_USAGE = 64
#: Every test of an isolated campaign crashed its worker and was
#: quarantined — no verdict at all was obtained, which almost always
#: means an environment problem rather than a concurrency bug.  Reused
#: by ``lineup live`` for an *unexpected* service death (CRASHED).
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
    EXIT_ALLCRASHED: "every test crashed (isolated campaigns) "
                     "or the live service died unexpectedly",
    EXIT_LAGGED: "online watch fell behind the writer past the lag budget",
    EXIT_INTERRUPTED: "interrupted (SIGINT/SIGTERM)",
}


class CliError(Exception):
    """A user-facing command-line error."""


class _SignalStop:
    """Graceful-shutdown flag set by SIGINT/SIGTERM.

    The first signal only raises the flag; the exploration loops poll it
    between executions (via :class:`ExplorationControl`), flush their
    checkpoint and report partial results.  A second SIGINT falls back to
    an ordinary KeyboardInterrupt for users who really mean *now*.
    """

    def __init__(self) -> None:
        self.flag = False
        self._previous: dict[int, object] = {}

    def __call__(self) -> bool:
        return self.flag

    def _handle(self, signum: int, frame: object) -> None:
        if self.flag:
            raise KeyboardInterrupt
        self.flag = True
        print(
            "\nreceived signal — finishing the current execution and "
            "flushing state (send again to abort immediately) ...",
            file=sys.stderr,
        )

    def install(self) -> "_SignalStop":
        if threading.current_thread() is not threading.main_thread():
            return self  # signals only reach the main thread
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[sig] = signal.signal(sig, self._handle)
            except (ValueError, OSError):  # pragma: no cover
                pass
        return self

    def uninstall(self) -> None:
        for sig, handler in self._previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError, TypeError):  # pragma: no cover
                pass
        self._previous.clear()


#: The exit code of each verdict of :mod:`repro.core.verdict`.  Every
#: command that ends on a verdict exits through :func:`_verdict_exit_code`;
#: what differs between them is only when a run counts as interrupted.
_VERDICT_EXIT = {
    "FAIL": EXIT_FAIL,
    "nondeterministic-verdict": EXIT_FAIL,
    "CRASHED": EXIT_ALLCRASHED,
    "LAGGED": EXIT_LAGGED,
    "EXHAUSTED": EXIT_EXHAUSTED,
    "PASS": EXIT_PASS,
}


def _verdict_exit_code(verdict: str, interrupted: bool = False) -> int:
    if interrupted:
        return EXIT_INTERRUPTED
    return _VERDICT_EXIT.get(verdict, EXIT_PASS)


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


def parse_test(
    matrix: str, init: str | None = None, final: str | None = None
) -> FiniteTest:
    """Parse a test matrix: ``op; op | op`` (columns ``|``, ops ``;``)."""
    columns = []
    for column_text in matrix.split("|"):
        ops = [p for p in (piece.strip() for piece in column_text.split(";")) if p]
        columns.append([parse_invocation(op) for op in ops])
    if not any(columns):
        raise CliError("the test matrix has no operations")

    def parse_sequence(text: str | None) -> list[Invocation]:
        if not text:
            return []
        return [
            parse_invocation(op)
            for op in (piece.strip() for piece in text.split(";"))
            if op
        ]

    return FiniteTest.of(
        columns, init=parse_sequence(init), final=parse_sequence(final)
    )


def _budget_from_args(args: argparse.Namespace) -> ExplorationBudget | None:
    deadline = getattr(args, "deadline", None)
    if deadline is None:
        return None
    if deadline <= 0:
        raise CliError("--deadline must be a positive number of seconds")
    return ExplorationBudget(deadline_seconds=deadline)


def _config_from_args(args: argparse.Namespace) -> CheckConfig:
    backend = getattr(args, "backend", "observations")
    model = getattr(args, "model", None)
    if backend == "monitor" and model is None:
        raise CliError("--backend monitor requires --model NAME")
    if model is not None and backend == "observations":
        # A model without an explicit backend means the monitor backend.
        backend = "monitor"
    reduction = getattr(args, "reduction", "none")
    if reduction != "none" and args.strategy not in ("dfs", "iterative"):
        raise CliError(
            f"--reduction {reduction} requires --strategy dfs or iterative"
        )
    return CheckConfig(
        preemption_bound=None if args.preemption_bound < 0 else args.preemption_bound,
        phase2_strategy=args.strategy,
        phase2_executions=args.schedules,
        seed=args.seed,
        max_concurrent_executions=args.max_executions,
        budget=_budget_from_args(args),
        watchdog_seconds=getattr(args, "watchdog", None),
        backend=backend,
        model=model,
        monitor_engine=getattr(args, "monitor_engine", "auto"),
        engine=getattr(args, "engine", DEFAULT_ENGINE),
        dump_traces=getattr(args, "dump_traces", None),
        reduction=reduction,
    )


def _provider_get_class(provider: str | None):
    """Resolve the class lookup of a provider module (default registry).

    A provider is any importable module exposing ``get_class(name)`` —
    the same indirection sandboxed workers use to find subjects by name,
    so crash-report repro commands (which carry ``--provider``) resolve
    the exact class the worker ran.
    """
    if not provider:
        return get_class
    import importlib

    try:
        module = importlib.import_module(provider)
    except ImportError as exc:
        raise CliError(f"cannot import provider module {provider!r}: {exc}")
    resolver = getattr(module, "get_class", None)
    if resolver is None:
        raise CliError(f"provider module {provider!r} has no get_class()")
    return resolver


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
        "--shards", type=int, metavar="N",
        help="split this check's schedule space into N shards fanned "
             "across sandboxed workers; the run survives losing any "
             "shard (requeue, quarantine, resumable shard checkpoints)",
    )
    parser.add_argument(
        "--lease", type=int, default=512, metavar="N",
        help="executions per shard lease before the frontier is "
             "checkpointed back to the coordinator (default: 512)",
    )
    _add_worker_options(parser)


def _add_worker_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="sandboxed worker processes (default: 2)",
    )
    parser.add_argument(
        "--mem-limit-mb", type=int, metavar="MB",
        help="RLIMIT_AS cap per worker, in MiB (default: unlimited)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
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
             "(default: a fresh temporary directory)",
    )


def _add_robustness_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="wall-clock budget; on expiry the run stops with verdict "
             "EXHAUSTED, partial statistics, and exit code 2",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH",
        help="periodically persist the exploration frontier to PATH "
             "(atomic writes); continue later with 'resume PATH'",
    )
    parser.add_argument(
        "--watchdog", type=float, metavar="SECONDS",
        help="max seconds one operation may run between scheduling points "
             "before the execution is classified divergent (default: off)",
    )


def _add_check_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--version", choices=("pre", "beta"), default="beta",
        help="library vintage to test (default: beta)",
    )
    parser.add_argument(
        "--strategy", choices=("dfs", "iterative", "random", "pct"), default="dfs",
        help="phase-2 exploration strategy (default: dfs)",
    )
    parser.add_argument(
        "--preemption-bound", type=int, default=2, metavar="N",
        help="phase-2 preemption bound; -1 for unbounded (default: 2)",
    )
    parser.add_argument(
        "--schedules", type=int, default=2000, metavar="N",
        help="schedules to sample when --strategy random (default: 2000)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-executions", type=int, default=20_000, metavar="N",
        help="phase-2 execution cap (default: 20000)",
    )
    _add_reduction_option(parser)
    parser.add_argument(
        "--backend", choices=("observations", "monitor"), default="observations",
        help="phase-2 verification backend: 'observations' checks against "
             "the phase-1 synthesized spec (complete per Theorem 5); "
             "'monitor' skips phase 1 and checks each history against an "
             "explicit sequential model (requires --model)",
    )
    parser.add_argument(
        "--model", metavar="NAME",
        help="sequential model for the monitor backend (register, counter, "
             "queue, stack, set, dict); implies --backend monitor",
    )
    parser.add_argument(
        "--monitor-engine",
        choices=("auto", "wgl", "compositional", "specialized"),
        default="auto",
        help="monitor algorithm (default: auto — cheapest applicable)",
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
             "to explored ones (sleep sets or DPOR; requires a DFS-family "
             "strategy; verdicts and history sets are unchanged)",
    )


def _add_trace_dump_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dump-traces", metavar="DIR",
        help="dump every explored concurrent history into DIR as a JSONL "
             "trace file (one per test), re-checkable offline with "
             "'monitor TRACE --model NAME'",
    )


def _add_provider_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--provider", metavar="MODULE",
        help="module exposing get_class(NAME) to resolve CLASS (default: "
             "the Table 1 registry); crash-report repro commands use this",
    )


def cmd_list(args: argparse.Namespace) -> int:
    print(f"{'class':26s} {'methods':>7s}  root causes (pre / beta)")
    for entry in REGISTRY:
        pre = ",".join(c.tag for c in entry.causes_for("pre")) or "-"
        beta = ",".join(c.tag for c in entry.causes_for("beta")) or "-"
        print(f"{entry.name:26s} {entry.method_count:7d}  {pre} / {beta}")
        if args.verbose:
            for invocation in entry.invocations:
                print(f"{'':36s}{invocation}")
    print()
    print("root causes:")
    for tag in sorted(ROOT_CAUSES):
        cause = ROOT_CAUSES[tag]
        print(f"  {tag} [{cause.category}] {cause.summary}")
    return 0


def _resolve_test(args: argparse.Namespace, entry) -> FiniteTest:
    if args.cause:
        cause = next((c for c in entry.causes if c.tag == args.cause), None)
        if cause is None or cause.witness_test is None:
            raise CliError(
                f"{entry.name} has no curated test for cause {args.cause!r}"
            )
        return cause.witness_test
    if not args.test:
        raise CliError("provide --test or --cause")
    return parse_test(args.test, args.init, args.final)


def _run_check(
    subject: SystemUnderTest,
    test: FiniteTest,
    config: CheckConfig,
    *,
    checkpoint: str | None,
    extra: dict,
    resume=None,
    relaxed: InterferencePolicy | None = None,
) -> "tuple[object, int]":
    """Shared check driver: signals, budget control, checkpointing.

    A *relaxed* policy (possibly an empty one) runs the Section 6
    extension instead: nondeterministic specifications plus the policy's
    interference rules.  That mode does not checkpoint.
    """
    stopper = _SignalStop().install()
    try:
        control = ExplorationControl(budget=config.budget, stop=stopper)
        if relaxed is not None:
            with TestHarness.from_config(subject, config) as harness:
                result = check_relaxed(
                    harness, test, config, relaxed, control=control
                )
        else:
            result = check(
                subject,
                test,
                config,
                control=control,
                checkpointer=(
                    Checkpointer(checkpoint, extra=extra) if checkpoint else None
                ),
                resume=resume,
            )
    finally:
        stopper.uninstall()
    # A FAIL found before the interrupt is still a proof, and wins.
    code = _verdict_exit_code(
        result.verdict,
        interrupted=result.exhausted and result.exhausted_reason == "interrupted",
    )
    if result.exhausted and checkpoint:
        print(f"state saved; continue with: python -m repro resume {checkpoint}")
        print()
    return result, code


def _run_swarm_check(
    args: argparse.Namespace,
    class_name: str,
    test: FiniteTest,
    config: CheckConfig,
    *,
    version: str,
    provider: str | None,
    swarm_config=None,
    pool_config=None,
    resume_document: dict | None = None,
) -> int:
    """Shared driver for ``check --shards`` and ``resume`` of a swarm."""
    from repro.swarm import (
        SwarmConfig,
        render_swarm_result,
        swarm_check,
        swarm_result_to_dict,
    )

    if config.phase2_strategy != "dfs":
        raise CliError(
            "--shards partitions a DFS frontier; it requires --strategy dfs"
        )
    if config.backend != "observations":
        raise CliError("--shards supports the observations backend only")
    if config.dump_traces:
        raise CliError("--dump-traces is not supported with --shards")
    if swarm_config is None:
        if args.shards < 1:
            raise CliError("--shards must be >= 1")
        if args.lease < 1:
            raise CliError("--lease must be >= 1")
        swarm_config = SwarmConfig(
            shards=args.shards, lease_executions=args.lease
        )
    if pool_config is None:
        pool_config = _pool_config(vars(args))
    stopper = _SignalStop().install()
    try:
        control = ExplorationControl(budget=config.budget, stop=stopper)
        result = swarm_check(
            class_name,
            version,
            test,
            config,
            provider=provider,
            swarm=swarm_config,
            pool_config=pool_config,
            control=control,
            checkpoint_path=getattr(args, "checkpoint", None),
            resume_document=resume_document,
        )
    finally:
        stopper.uninstall()
    # The reason is checked first: an interrupted swarm exits 130 even
    # when a shard had already failed.
    code = _verdict_exit_code(
        result.verdict, interrupted=result.exhausted_reason == "interrupted"
    )
    checkpoint = getattr(args, "checkpoint", None)
    if not result.phase2_complete and checkpoint:
        print(f"state saved; continue with: python -m repro resume {checkpoint}")
        print()
    if getattr(args, "json", False):
        import json as _json

        print(_json.dumps(swarm_result_to_dict(result), indent=2))
    else:
        print(render_swarm_result(result))
    return code


def cmd_check(args: argparse.Namespace) -> int:
    entry = _provider_get_class(args.provider)(args.cls)
    test = _resolve_test(args, entry)
    config = _config_from_args(args)
    if getattr(args, "shards", None):
        if args.relaxed:
            raise CliError("--relaxed is not supported with --shards")
        if args.minimize:
            raise CliError(
                "--minimize is not supported with --shards (re-run the "
                "failing test without --shards to minimize it)"
            )
        if not getattr(args, "json", False):
            print(
                f"Checking {entry.name}({args.version}) across "
                f"{args.shards} shards on:"
            )
            print(test.render_matrix())
            print()
        return _run_swarm_check(
            args,
            entry.name,
            test,
            config,
            version=args.version,
            provider=args.provider,
        )
    if config.backend == "monitor":
        if args.checkpoint:
            raise CliError(
                "--backend monitor does not support --checkpoint (there "
                "is no phase-1 state to resume)"
            )
        if args.relaxed:
            raise CliError("--backend monitor is incompatible with --relaxed")
    if args.relaxed:
        if args.checkpoint:
            raise CliError(
                "--checkpoint is not supported with --relaxed (a relaxed "
                "run has no resumable state; bound it with --deadline)"
            )
        if args.minimize:
            raise CliError(
                "--minimize is not supported with --relaxed (the shrinker "
                "re-checks candidates strictly)"
            )
    subject = SystemUnderTest(
        entry.factory(args.version), f"{entry.name}({args.version})"
    )
    if not getattr(args, "json", False):
        # Keep --json output a single parseable document.
        print(f"Checking {entry.name}({args.version}) on:")
        print(test.render_matrix())
        print()
    result, code = _run_check(
        subject,
        test,
        config,
        checkpoint=args.checkpoint,
        extra={"subject": {"cls": entry.name, "version": args.version}},
        # The documented .NET interference behaviours of this class, if any.
        relaxed=(
            DOTNET_POLICIES.get(entry.name, InterferencePolicy())
            if args.relaxed
            else None
        ),
    )
    if result.failed and args.minimize:
        quiet = getattr(args, "json", False)
        if not quiet:
            print("minimizing the failing test ...")
        minimized, result = minimize_failing_test(
            subject, test, config=config
        )
        if not quiet:
            print(f"minimal failing dimension: {minimized.dimension}")
            print()
    if getattr(args, "json", False):
        import json as _json

        from repro.core.report import check_result_to_dict

        print(_json.dumps(check_result_to_dict(result), indent=2))
    else:
        print(render_check_result(result))
    return code


def _shared_params(args: argparse.Namespace) -> dict:
    """The check and executor flags ``campaign`` and ``generate`` share.

    They are stored in every checkpoint, so ``resume`` rebuilds the same
    check configuration and the same executor.
    """
    if args.deadline is not None and args.deadline <= 0:
        raise CliError("--deadline must be a positive number of seconds")
    if args.workers < 1:
        raise CliError("--workers must be >= 1")
    if args.max_retries < 0:
        raise CliError("--max-retries must be >= 0")
    return {
        key: getattr(args, key)
        for key in (
            "schedules", "seed", "deadline", "watchdog", "reduction",
            "engine", "isolate", "workers", "mem_limit_mb", "max_retries",
            "start_method", "report_dir", "provider",
        )
    }


def _campaign_check_config(params: dict) -> CheckConfig:
    """The per-test check configuration of a campaign or generation run."""
    reduction = params.get("reduction", "none")
    deadline = params.get("deadline")
    return CheckConfig(
        # Reductions need the deterministic DFS frontier; the unreduced
        # campaign default stays random sampling of `schedules` walks.
        phase2_strategy="dfs" if reduction != "none" else "random",
        reduction=reduction,
        phase2_executions=params.get("schedules", 150),
        seed=params.get("seed", 0),
        max_serial_executions=2000,
        budget=ExplorationBudget(deadline_seconds=deadline) if deadline else None,
        watchdog_seconds=params.get("watchdog"),
        dump_traces=params.get("dump_traces"),
        engine=params.get("engine", DEFAULT_ENGINE),
    )


def _pool_config(params: dict):
    """Worker-pool supervision settings from the isolation flags."""
    from repro.exec import PoolConfig, ResourceLimits

    max_retries = params.get("max_retries")
    start_method = params.get("start_method")
    if start_method not in ("fork", "spawn"):
        # The flag was not given — or an old checkpoint names a method
        # since retired, and resumes on the pool's default.
        start_method = PoolConfig().start_method
    return PoolConfig(
        workers=int(params.get("workers") or 2),
        start_method=start_method,
        limits=ResourceLimits(mem_limit_mb=params.get("mem_limit_mb")),
        max_retries=2 if max_retries is None else int(max_retries),
        report_dir=params.get("report_dir"),
    )


def _executor(params: dict):
    """``--isolate`` is a sandboxing choice: it picks the executor."""
    from repro.exec import InlineExecutor, WorkerPool

    if not params.get("isolate"):
        return InlineExecutor()
    pool = WorkerPool(_pool_config(params))
    print(f"worker reports in {pool.report_dir}")
    return pool


def _run_campaign(
    plan: "list[tuple[str, str]]",
    params: dict,
    checkpoint: str | None,
    finished_rows: Sequence = (),
    resume_current=None,
    budget_snapshot: dict | None = None,
) -> int:
    """The campaign command around :func:`run_campaign_plan`: signals,
    budget, executor, then the table and the exit code."""
    config = _campaign_check_config(params)
    stopper = _SignalStop().install()
    control = ExplorationControl(budget=config.budget, stop=stopper)
    if budget_snapshot is not None:
        control.meter = BudgetMeter.from_snapshot(budget_snapshot)
    control.start()
    try:
        with _executor(params) as executor:
            rows, stop_reason, quarantined = run_campaign_plan(
                plan,
                params,
                config,
                executor,
                resolve=_provider_get_class(params.get("provider")),
                control=control,
                checkpointer=Checkpointer(checkpoint) if checkpoint else None,
                finished_rows=finished_rows,
                resume_current=resume_current,
            )
    finally:
        stopper.uninstall()
    print(render_table2(rows))
    _print_quarantine_summary(rows, quarantined)
    if stop_reason is not None:
        what = (
            "interrupted"
            if stop_reason == "interrupted"
            else f"budget exhausted ({stop_reason})"
        )
        print()
        print(f"campaign {what}; the table above is partial")
        if checkpoint:
            print(f"state saved; continue with: python -m repro resume {checkpoint}")
    return _campaign_exit_code(rows, stop_reason)


def _campaign_exit_code(rows: list, stop_reason: str | None) -> int:
    if stop_reason == "interrupted":
        return EXIT_INTERRUPTED
    tests_run = sum(row.tests_run for row in rows)
    crashed = sum(row.tests_crashed for row in rows)
    if tests_run and crashed == tests_run:
        return EXIT_ALLCRASHED
    if campaign_verdict(rows) == "FAIL":
        return EXIT_FAIL
    if stop_reason is not None:
        return EXIT_EXHAUSTED
    return EXIT_PASS


def _print_quarantine_summary(rows: list, quarantined: "list[str]") -> None:
    crashed = sum(row.tests_crashed for row in rows)
    nondet = sum(row.tests_nondet for row in rows)
    if crashed or quarantined:
        print()
        print(
            f"{crashed} test(s) quarantined after repeated worker crashes; "
            "crash reports:"
        )
        for path in quarantined:
            print(f"  {path}")
    if nondet:
        print()
        print(
            f"{nondet} test(s) reported nondeterministic-verdict: re-runs "
            "of a FAIL disagreed (the failing worker had previously "
            "crashed, so the verdict is suspect) — inspect manually"
        )


def cmd_campaign(args: argparse.Namespace) -> int:
    resolve = _provider_get_class(args.provider)
    entries = REGISTRY if args.cls == "all" else (resolve(args.cls),)
    versions = args.versions.split(",")
    plan = [(entry.name, version) for entry in entries for version in versions]
    params = {
        **_shared_params(args),
        "samples": args.samples,
        "rows": args.rows,
        "cols": args.cols,
        "dump_traces": args.dump_traces,
    }
    if args.generate:
        if args.checkpoint:
            raise CliError(
                "campaign --generate does not checkpoint; use "
                "'generate --corpus-dir DIR' for resumable generation"
            )
        params["budget"] = args.budget
        params["max_rows"] = args.rows
        params["max_cols"] = args.cols
        return _run_generate_plan(plan, params)
    return _run_campaign(plan, params, args.checkpoint)


def _generate_exit_code(report) -> int:
    """Exit-code mapping for a generation report.

    Mirrors the campaign contract: only a deduplicated failure is a
    failing exit; a fully consumed execution budget is normal completion
    (the budget *is* the plan), while a deadline/decision stop or an
    interrupt reports the campaign as cut short.
    """
    if report.stop_reason == "interrupted":
        return EXIT_INTERRUPTED
    if report.failures:
        return EXIT_FAIL
    if report.stop_reason is not None:
        return EXIT_EXHAUSTED
    return EXIT_PASS


def _run_generate(
    name: str,
    version: str,
    params: dict,
    checkpoint: str | None,
    resume_document: dict | None = None,
    fresh_deadline: float | None = None,
    fresh_budget: int | None = None,
    json_output: bool = False,
) -> int:
    """Run (or resume) one generation campaign; returns its exit code.

    *params* carries the CLI knobs (both the GenerateConfig fields and
    the isolation/pool flags); on resume the checkpointed configs win
    and *params* only supplies the pool/provider plumbing.
    """
    from dataclasses import replace as _replace

    from repro.core.report import render_generation_report
    from repro.generate import (
        GenerateConfig,
        parse_generate_state,
        run_generation_campaign,
    )

    provider = params.get("provider")
    entry = _provider_get_class(provider)(name)
    resume = None
    if resume_document is not None:
        config, gen, resume = parse_generate_state(resume_document)
    else:
        # The deadline is the campaign's (GenerateConfig), not each
        # candidate check's; candidates dump no traces.
        config = _replace(
            _campaign_check_config(params), budget=None, dump_traces=None
        )
        gen = GenerateConfig(
            budget=params.get("budget", 2000),
            seeds=params.get("gen_seeds", 4),
            seed=params.get("seed", 0),
            max_rows=params.get("max_rows", 3),
            max_cols=params.get("max_cols", 3),
            deadline=params.get("deadline"),
        )
    if fresh_deadline is not None:
        gen = _replace(gen, deadline=fresh_deadline)
        if resume is not None:
            resume.meter_snapshot = _override_deadline(
                resume.meter_snapshot, fresh_deadline
            )
    if fresh_budget is not None:
        gen = _replace(gen, budget=fresh_budget)
    checkpointer = None
    if checkpoint:
        # Every folded candidate is persisted: candidates are expensive
        # (a whole two-phase check each), checkpoints are cheap.
        checkpointer = Checkpointer(
            checkpoint,
            every_executions=1,
            extra={
                "subject": {
                    "cls": entry.name,
                    "version": version,
                    "provider": provider,
                },
                "params": params,
            },
        )
    stopper = _SignalStop().install()
    try:
        with _executor(params) as executor:
            report = run_generation_campaign(
                entry,
                version,
                config,
                gen,
                control=ExplorationControl(
                    budget=ExplorationBudget(
                        deadline_seconds=gen.deadline, max_executions=gen.budget
                    ),
                    stop=stopper,
                ),
                checkpointer=checkpointer,
                resume=resume,
                pool=executor,
                provider=provider,
            )
    finally:
        stopper.uninstall()
    if json_output:
        import json as _json

        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(f"generation campaign: {entry.name}({version})")
        print(render_generation_report(report))
        if report.stop_reason is not None and checkpoint:
            print(f"state saved; continue with: python -m repro resume {checkpoint}")
    return _generate_exit_code(report)


def _run_generate_plan(plan: "list[tuple[str, str]]", params: dict) -> int:
    """``campaign --generate``: one generation campaign per plan entry."""
    codes = []
    for position, (name, version) in enumerate(plan):
        if position:
            print()
        codes.append(_run_generate(name, version, params, checkpoint=None))
        if codes[-1] == EXIT_INTERRUPTED:
            break
    for code in (EXIT_INTERRUPTED, EXIT_FAIL, EXIT_EXHAUSTED):
        if code in codes:
            return code
    return EXIT_PASS


def cmd_generate(args: argparse.Namespace) -> int:
    import os

    if args.budget is not None and args.budget < 1:
        raise CliError("--budget must be a positive number of executions")
    if args.seeds < 1:
        raise CliError("--seeds must be >= 1")
    if args.max_rows < 1 or args.max_cols < 1:
        raise CliError("--max-rows/--max-cols must be >= 1")
    params = {
        **_shared_params(args),
        "budget": args.budget,
        "gen_seeds": args.seeds,
        "max_rows": args.max_rows,
        "max_cols": args.max_cols,
    }
    checkpoint = None
    resume_document = None
    if args.corpus_dir:
        os.makedirs(args.corpus_dir, exist_ok=True)
        checkpoint = os.path.join(args.corpus_dir, "corpus.json")
        if os.path.exists(checkpoint):
            document = load_checkpoint(checkpoint)
            if document.get("kind") != "generate":
                raise CliError(
                    f"{checkpoint} is not a generation corpus checkpoint"
                )
            subject = document.get("subject") or {}
            if (subject.get("cls"), subject.get("version")) != (
                args.cls, args.version,
            ):
                raise CliError(
                    f"{checkpoint} belongs to "
                    f"{subject.get('cls')}({subject.get('version')}), "
                    f"not {args.cls}({args.version}); pick another "
                    "--corpus-dir"
                )
            resume_document = document
            print(f"resuming from corpus {checkpoint}")
    return _run_generate(
        args.cls,
        args.version,
        params,
        checkpoint,
        resume_document=resume_document,
        # On resume the current command's budget/deadline apply (totals
        # across sessions); the checkpoint keeps the stream-defining
        # mutation parameters.
        fresh_deadline=args.deadline if resume_document else None,
        fresh_budget=args.budget if resume_document else None,
        json_output=args.json,
    )


def _override_deadline(snapshot: dict | None, deadline: float) -> dict | None:
    """Swap a fresh deadline into a restored budget meter snapshot.

    The default resume contract is that the original budget is *total*
    across sessions (elapsed time carries over); ``resume --deadline``
    instead grants the resumed session a new clock, keeping the
    execution/decision counters.
    """
    if snapshot is None:
        return None
    budget = dict(snapshot.get("budget") or {})
    budget["deadline_seconds"] = deadline
    return {**snapshot, "budget": budget, "elapsed": 0.0}


def _resume_swarm(args: argparse.Namespace, document: dict) -> int:
    """Restart a sharded check from its swarm checkpoint.

    Surviving shard-result files are merged in as-is; only unsettled
    lineages (and quarantined ones, which get exactly one fresh attempt)
    are re-dispatched.
    """
    from dataclasses import replace

    from repro.swarm.runner import parse_swarm_state

    subject_info, test, config, swarm_config = parse_swarm_state(document)
    if "cls" not in subject_info or "version" not in subject_info:
        raise CliError("swarm checkpoint lacks subject info")
    if args.deadline is not None:
        config = replace(
            config, budget=ExplorationBudget(deadline_seconds=args.deadline)
        )
        document = {
            **document,
            "budget": _override_deadline(
                document.get("budget"), args.deadline
            ),
        }
    pool_config = _pool_config(document.get("pool") or {})
    settled = len(document.get("shard_files") or {})
    print(
        f"Resuming swarm check of {subject_info['cls']}"
        f"({subject_info['version']}) from {args.checkpoint} "
        f"({settled} shard file(s) on disk)"
    )
    print(test.render_matrix())
    print()
    return _run_swarm_check(
        args,
        subject_info["cls"],
        test,
        config,
        version=subject_info["version"],
        provider=subject_info.get("provider"),
        swarm_config=swarm_config,
        pool_config=pool_config,
        resume_document=document,
    )


def cmd_resume(args: argparse.Namespace) -> int:
    if args.deadline is not None and args.deadline <= 0:
        raise CliError("--deadline must be a positive number of seconds")
    document = load_checkpoint(args.checkpoint)
    if document["kind"] == "campaign":
        plan, rows, params, resume_current = parse_campaign_state(document)
        budget_snapshot = document.get("budget")
        if args.deadline is not None:
            params = {**params, "deadline": args.deadline}
            budget_snapshot = _override_deadline(budget_snapshot, args.deadline)
        print(
            f"Resuming campaign from {args.checkpoint} "
            f"({len(rows)}/{len(plan)} rows finished)"
        )
        return _run_campaign(
            plan,
            params,
            args.checkpoint,
            rows,
            resume_current=resume_current,
            budget_snapshot=budget_snapshot,
        )

    if document["kind"] == "swarm":
        return _resume_swarm(args, document)

    if document["kind"] == "generate":
        subject_info = document.get("subject") or {}
        if "cls" not in subject_info or "version" not in subject_info:
            raise CliError("generate checkpoint lacks subject info")
        params = document.get("params") or {}
        print(
            f"Resuming generation campaign of {subject_info['cls']}"
            f"({subject_info['version']}) from {args.checkpoint}"
        )
        return _run_generate(
            subject_info["cls"],
            subject_info["version"],
            params,
            args.checkpoint,
            resume_document=document,
            fresh_deadline=args.deadline,
        )

    # kind == "check"
    subject_info = document.get("subject") or {}
    if "cls" not in subject_info or "version" not in subject_info:
        raise CliError(
            "check checkpoint lacks subject info; it was not written by the "
            "command line (re-run with --checkpoint)"
        )
    # Shard checkpoints (and any worker-run check) may name a non-default
    # provider; resolve through it so the exact class the worker ran is
    # the one resumed.
    entry = _provider_get_class(subject_info.get("provider"))(
        subject_info["cls"]
    )
    version = subject_info["version"]
    test, config, resume = parse_check_state(document)
    if args.deadline is not None:
        from dataclasses import replace

        config = replace(
            config, budget=ExplorationBudget(deadline_seconds=args.deadline)
        )
        resume.budget_snapshot = _override_deadline(
            resume.budget_snapshot, args.deadline
        )
    subject = SystemUnderTest(
        entry.factory(version), f"{entry.name}({version})"
    )
    print(
        f"Resuming check of {entry.name}({version}) from {args.checkpoint} "
        f"(interrupted in {resume.phase})"
    )
    print(test.render_matrix())
    print()
    result, code = _run_check(
        subject,
        test,
        config,
        checkpoint=args.checkpoint,
        extra={
            "subject": {
                "cls": entry.name,
                "version": version,
                "provider": subject_info.get("provider"),
            }
        },
        resume=resume,
    )
    print(render_check_result(result))
    return code


def cmd_monitor(args: argparse.Namespace) -> int:
    """Offline re-check of a JSONL trace against an explicit model."""
    from repro.core.checker import NO_FULL_WITNESS, NO_STUCK_WITNESS, Violation
    from repro.core.checkpoint import test_from_dict
    from repro.core.explain import diagnose_monitor_failure
    from repro.core.report import render_violation
    from repro.monitor import (
        MonitorLimitError,
        TraceError,
        get_model,
        load_trace,
        monitor_history,
    )

    model = get_model(_trace_model_name(args))
    try:
        trace = load_trace(args.trace)
    except TraceError as exc:
        raise CliError(str(exc)) from exc

    def trace_test(history) -> FiniteTest:
        if trace.test is not None:
            try:
                return test_from_dict(trace.test)
            except Exception:  # noqa: BLE001 - header metadata is advisory
                pass
        return FiniteTest.of(
            [
                [op.invocation for op in history.operations if op.thread == t]
                for t in range(trace.n_threads)
            ]
        )

    subject = trace.subject or "(unknown subject)"
    print(
        f"Monitoring {len(trace.histories)} histories of {subject} "
        f"against model {model.name!r} (engine {args.monitor_engine})"
    )
    if trace.truncated:
        print("note: the trace's final record was truncated and is skipped")
    failures = 0
    exhausted = 0
    first_violation: "Violation | None" = None
    for number, history in enumerate(trace.histories, start=1):
        try:
            verdict = monitor_history(
                history,
                model,
                engine=args.monitor_engine,
                max_configurations=args.max_configurations,
            )
        except MonitorLimitError:
            exhausted += 1
            if args.verbose:
                print(f"  history {number}: EXHAUSTED (configuration cap)")
            continue
        if verdict.ok:
            if args.verbose:
                print(
                    f"  history {number}: OK "
                    f"({verdict.result.engine}, "
                    f"{verdict.result.configurations} configurations)"
                )
            continue
        failures += 1
        if args.verbose:
            print(f"  history {number}: FAIL")
        if first_violation is None:
            first_violation = Violation(
                kind=(
                    NO_STUCK_WITNESS
                    if verdict.failed_pending is not None
                    else NO_FULL_WITNESS
                ),
                test=trace_test(history),
                history=history,
                pending_op=verdict.failed_pending,
                diagnosis=diagnose_monitor_failure(verdict, model),
            )
    print(
        f"verdict: {'FAIL' if failures else ('EXHAUSTED' if exhausted else 'PASS')} "
        f"({len(trace.histories) - failures - exhausted} ok, "
        f"{failures} violating, {exhausted} exhausted)"
    )
    if first_violation is not None:
        print()
        print(render_violation(first_violation))
        return EXIT_FAIL
    return EXIT_EXHAUSTED if exhausted else EXIT_PASS


def cmd_live(args: argparse.Namespace) -> int:
    """Record N sessions against a live service, then check the trace."""
    import json as _json
    from dataclasses import replace as _dc_replace

    from repro.live import (
        LiveConfig,
        parse_chaos,
        render_live_result,
        run_live,
        start_refsut_process,
    )

    try:
        chaos = parse_chaos(args.chaos, seed=args.chaos_seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if chaos.modes:
        chaos = _dc_replace(chaos, kill_after_events=args.kill_after_events)

    proc = None
    if args.url:
        if chaos.enabled("kill"):
            raise CliError(
                "chaos mode 'kill' needs a SUT spawned by this process; "
                "drop --url or drop 'kill' from --chaos"
            )
        host, _, port_text = args.url.rpartition(":")
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            raise CliError(
                f"--url must be HOST:PORT, got {args.url!r}"
            ) from None
        subject = args.url
    else:
        proc = start_refsut_process(
            args.variant, race_window=args.race_window
        )
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
        monitor_engine=args.monitor_engine,
        subject=subject,
        flush_every_n=args.flush_every_n,
        flush_interval=args.flush_interval,
    )

    stop = _SignalStop().install()
    try:
        result = run_live(
            host, port, config, sut_process=proc, should_stop=stop
        )
    finally:
        stop.uninstall()
        if proc is not None:
            proc.close()

    if args.json:
        print(
            _json.dumps(
                {
                    "verdict": result.verdict,
                    "outcome": result.outcome,
                    "partial": result.partial,
                    "completed": result.completed,
                    "indeterminate": result.indeterminate,
                    "errors": result.errors,
                    "connect_retries": result.connect_retries,
                    "injected": {
                        mode: count
                        for mode, count in sorted(result.injected.items())
                        if count
                    },
                    "trace": result.trace_path,
                }
            )
        )
    else:
        print(render_live_result(result))

    # A violation in a partial trace is still a proof, and wins.
    return _verdict_exit_code(
        result.verdict,
        interrupted=result.verdict != "FAIL" and result.outcome == "interrupted",
    )


def _trace_model_name(args: argparse.Namespace) -> str:
    """``--model``, defaulting to the model the trace's v2 header names."""
    from repro.monitor import TraceError, read_trace_header

    if args.model:
        return args.model
    try:
        live = read_trace_header(args.trace).live
    except TraceError as exc:
        raise CliError(f"--model NAME is required: {exc}") from exc
    if live is None or live.model is None:
        raise CliError(
            "--model NAME is required (the trace header names no model)"
        )
    return live.model


def cmd_watch(args: argparse.Namespace) -> int:
    """Online check of a (possibly still growing) JSONL trace."""
    import json as _json

    from repro.monitor import TraceError, get_model
    from repro.stream import WatchConfig, watch_sharded, watch_trace

    model_name = _trace_model_name(args)
    model = get_model(model_name)
    if args.shards < 1:
        raise CliError("--shards must be >= 1")
    if args.workers is not None and args.workers < 1:
        raise CliError("--workers must be >= 1")
    if args.shards > 1 and not model.partitionable:
        raise CliError(
            f"model {model.name!r} is not partitionable; --shards needs a "
            "per-key model (queue-per-key models: set, dict)"
        )
    config = WatchConfig(
        follow=args.follow,
        shards=args.shards,
        lag_budget=args.lag_budget,
        idle_timeout=args.idle_timeout,
        poll_interval=args.poll_interval,
        max_configurations=args.max_configurations,
        monitor_engine=args.monitor_engine,
        stats_out=args.stats_out,
        stats_interval=args.stats_interval,
    )
    try:
        if args.shards > 1:
            result = watch_sharded(
                args.trace, model_name, config, workers=args.workers
            )
        else:
            result = watch_trace(args.trace, model, config)
    except TraceError as exc:
        raise CliError(str(exc)) from exc
    except KeyboardInterrupt:
        print("interrupted")
        return EXIT_INTERRUPTED

    if args.json:
        print(_json.dumps({"model": model_name, **result.to_dict()}))
    else:
        stats = result.stats
        print(
            f"watched {args.trace} against model {model_name!r}: "
            f"{result.verdict}"
        )
        print(
            f"  {stats.get('events', 0)} events "
            f"({result.events_per_sec:.0f}/s), "
            f"{stats.get('retired', 0)} retired, "
            f"max frontier {stats.get('max_frontier', 0)}, "
            f"max retirement lag {stats.get('max_retirement_lag', 0)}, "
            f"{stats.get('maxrss_kb', 0)} KiB high-water"
        )
        if result.restarts:
            print(f"  restarted {result.restarts}x (rotation/truncation/"
                  "unsound partition)")
        if not result.finalized:
            torn = " (final line torn — writer died mid-record?)" if result.torn else ""
            print(f"  note: trace is not finalized{torn}")
        if result.outcome is not None:
            print(f"  recording outcome: {result.outcome}")
        if result.counterexample:
            print()
            print(result.counterexample)

    return _verdict_exit_code(result.verdict)


def cmd_observations(args: argparse.Namespace) -> int:
    entry = _provider_get_class(getattr(args, "provider", None))(args.cls)
    test = _resolve_test(args, entry)
    subject = SystemUnderTest(
        entry.factory(args.version), f"{entry.name}({args.version})"
    )
    with TestHarness(subject) as harness:
        observations, stats = harness.run_serial(test)
    xml = observations_to_xml(observations)
    if args.output:
        atomic_write_text(args.output, xml)
        print(
            f"wrote {len(observations)} serial histories "
            f"({stats.executions} executions) to {args.output}"
        )
    else:
        print(xml)
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.evaluation import EvaluationScale, run_evaluation

    scale = EvaluationScale(
        samples_per_class=args.samples,
        rows=args.rows,
        cols=args.cols,
        phase2_schedules=args.schedules,
        seed=args.seed,
    )
    report = run_evaluation(scale)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Argparse variant whose usage errors exit 64, not argparse's 2.

    Exit code 2 means "budget exhausted" in this tool (see the module
    docstring), so usage errors use the BSD ``EX_USAGE`` convention.
    """

    def error(self, message: str) -> "None":  # type: ignore[override]
        raise CliError(f"{self.prog}: {message}")


_EXIT_CODE_HELP = "exit status: " + ", ".join(
    f"{code} = {meaning}"
    for code, meaning in sorted(EXIT_CODE_MEANINGS.items())
)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="repro",
        description="Line-Up: a complete and automatic linearizability checker",
        epilog=_EXIT_CODE_HELP,
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_ArgumentParser
    )

    p_list = sub.add_parser("list", help="show the Table 1 class inventory")
    p_list.add_argument("-v", "--verbose", action="store_true")
    p_list.set_defaults(func=cmd_list)

    p_check = sub.add_parser(
        "check", help="run the two-phase check on one test",
        epilog=_EXIT_CODE_HELP,
    )
    p_check.add_argument("cls", metavar="CLASS", help="registry class name")
    p_check.add_argument(
        "--test", metavar="MATRIX",
        help="test matrix, columns '|', ops ';' — e.g. \"Add(1); TryTake | TryTake\"",
    )
    p_check.add_argument("--init", metavar="OPS", help="init sequence (ops ';')")
    p_check.add_argument("--final", metavar="OPS", help="final sequence (ops ';')")
    p_check.add_argument(
        "--cause", metavar="TAG", help="use the curated witness for a root cause"
    )
    p_check.add_argument(
        "--minimize", action="store_true", help="shrink a failing test first"
    )
    p_check.add_argument(
        "--relaxed", action="store_true",
        help="Section 6 extension: tolerate nondeterministic specs and the "
             "class's documented interference behaviours",
    )
    p_check.add_argument(
        "--json", action="store_true",
        help="print the result summary as JSON instead of the text report",
    )
    _add_check_options(p_check)
    _add_swarm_options(p_check)
    _add_robustness_options(p_check)
    p_check.set_defaults(func=cmd_check)

    p_campaign = sub.add_parser(
        "campaign", help="RandomCheck campaign (Table 2 rows)",
        epilog=_EXIT_CODE_HELP,
    )
    p_campaign.add_argument(
        "cls", metavar="CLASS", help="registry class name, or 'all'"
    )
    p_campaign.add_argument("--versions", default="pre,beta")
    p_campaign.add_argument("--samples", type=int, default=4)
    p_campaign.add_argument("--rows", type=int, default=3)
    p_campaign.add_argument("--cols", type=int, default=3)
    p_campaign.add_argument("--schedules", type=int, default=150)
    p_campaign.add_argument("--seed", type=int, default=0)
    _add_engine_argument(p_campaign)
    p_campaign.add_argument(
        "--generate", action="store_true",
        help="replace uniform RandomCheck sampling with the "
             "coverage-guided generation loop (see 'generate --help'); "
             "--rows/--cols become matrix growth bounds",
    )
    p_campaign.add_argument(
        "--budget", type=int, default=2000, metavar="N",
        help="with --generate: SUT-execution budget per class/version "
             "(default: 2000)",
    )
    _add_reduction_option(p_campaign)
    _add_provider_option(p_campaign)
    _add_isolation_options(p_campaign)
    _add_robustness_options(p_campaign)
    _add_trace_dump_option(p_campaign)
    p_campaign.set_defaults(func=cmd_campaign)

    p_generate = sub.add_parser(
        "generate",
        help="coverage-guided scenario generation: mutate a corpus of "
             "tests towards unseen execution equivalence classes",
        epilog=_EXIT_CODE_HELP,
    )
    p_generate.add_argument("cls", metavar="CLASS", help="registry class name")
    p_generate.add_argument(
        "--version", choices=("pre", "beta"), default="beta",
        help="library vintage to test (default: beta)",
    )
    p_generate.add_argument(
        "--budget", type=int, default=2000, metavar="N",
        help="total SUT executions (both phases, all candidates) the "
             "campaign may spend (default: 2000)",
    )
    p_generate.add_argument(
        "--corpus-dir", metavar="DIR",
        help="persist the corpus + campaign state to DIR/corpus.json "
             "(atomic writes) and auto-resume from it on the next run",
    )
    p_generate.add_argument(
        "--seed", type=int, default=0,
        help="campaign PRNG seed; the candidate stream is a deterministic "
             "function of it (default: 0)",
    )
    p_generate.add_argument(
        "--seeds", type=int, default=4, metavar="N",
        help="seed-corpus size: tiny starter tests before mutation "
             "takes over (default: 4)",
    )
    p_generate.add_argument(
        "--max-rows", type=int, default=3, metavar="N",
        help="matrix growth bound: invocations per thread (default: 3)",
    )
    p_generate.add_argument(
        "--max-cols", type=int, default=3, metavar="N",
        help="matrix growth bound: threads (default: 3)",
    )
    p_generate.add_argument(
        "--schedules", type=int, default=150, metavar="N",
        help="phase-2 schedules sampled per candidate (default: 150)",
    )
    p_generate.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="wall-clock budget; on expiry the campaign stops with "
             "partial results and exit code 2",
    )
    p_generate.add_argument(
        "--watchdog", type=float, metavar="SECONDS",
        help="max seconds one operation may run between scheduling "
             "points before the execution is classified divergent",
    )
    _add_engine_argument(p_generate)
    p_generate.add_argument(
        "--json", action="store_true",
        help="print the full report (curve, failures, corpus stats) as JSON",
    )
    _add_reduction_option(p_generate)
    _add_provider_option(p_generate)
    _add_isolation_options(p_generate)
    p_generate.set_defaults(func=cmd_generate)

    p_resume = sub.add_parser(
        "resume",
        help="continue an interrupted check/campaign/generation from "
             "its checkpoint",
        epilog=_EXIT_CODE_HELP,
    )
    p_resume.add_argument(
        "checkpoint", metavar="PATH", help="checkpoint file written by --checkpoint"
    )
    p_resume.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="grant the resumed session a fresh wall-clock budget "
             "(default: the original budget is total across sessions)",
    )
    p_resume.set_defaults(func=cmd_resume)

    p_monitor = sub.add_parser(
        "monitor",
        help="re-check a dumped JSONL trace against an explicit "
             "sequential model (no execution, no phase 1)",
        epilog=_EXIT_CODE_HELP,
    )
    p_monitor.add_argument(
        "trace", metavar="TRACE",
        help="JSONL trace file (written by --dump-traces or referenced by "
             "a crash report's trace_file)",
    )
    p_monitor.add_argument(
        "--model", metavar="NAME",
        help="sequential model to check against (register, counter, "
             "queue, stack, set, dict); default: the trace header's model",
    )
    p_monitor.add_argument(
        "--monitor-engine", "--engine",
        dest="monitor_engine",
        choices=("auto", "wgl", "compositional", "specialized"),
        default="auto",
        help="monitor algorithm (default: auto — cheapest applicable)",
    )
    p_monitor.add_argument(
        "--max-configurations", type=int, metavar="N",
        help="abort a history's search past N configurations (EXHAUSTED)",
    )
    p_monitor.add_argument(
        "-v", "--verbose", action="store_true",
        help="print a verdict line per history",
    )
    p_monitor.set_defaults(func=cmd_monitor)

    p_live = sub.add_parser(
        "live",
        help="record N concurrent sessions against a live service over "
             "wall-clock time, then check the recorded trace",
        epilog=_EXIT_CODE_HELP,
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
        "--sessions", type=int, default=4, metavar="N",
        help="concurrent client sessions (default: 4)",
    )
    p_live.add_argument(
        "--ops", type=int, default=25, metavar="N",
        help="operations per session (default: 25)",
    )
    p_live.add_argument(
        "--op-timeout", type=float, default=1.0, metavar="SECONDS",
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
        "--kill-after-events", type=int, default=40, metavar="N",
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
        "--race-window", type=float, default=0.004, metavar="SECONDS",
        help="reference-SUT buggy-variant race window (default: 0.004)",
    )
    p_live.add_argument(
        "--monitor-engine", "--engine",
        dest="monitor_engine",
        choices=("auto", "wgl", "compositional", "specialized"),
        default="auto",
        help="monitor algorithm for the offline check (default: auto)",
    )
    p_live.add_argument(
        "--max-configurations", type=int, default=500_000, metavar="N",
        help="abort the offline search past N configurations (EXHAUSTED; "
             "default: 500000)",
    )
    p_live.add_argument(
        "--flush-every-n", type=int, default=1, metavar="N",
        help="flush the trace every N events instead of every event "
             "(a follower may lag up to N events; default: 1)",
    )
    p_live.add_argument(
        "--flush-interval", type=float, default=0.0, metavar="SECONDS",
        help="with --flush-every-n > 1: also flush any event buffered "
             "longer than this at the next append (default: off)",
    )
    p_live.add_argument(
        "--json", action="store_true",
        help="print a one-line JSON result instead of the report",
    )
    p_live.set_defaults(func=cmd_live)

    p_watch = sub.add_parser(
        "watch",
        help="follow a JSONL trace while it is written and keep an "
             "online linearizability verdict (the streaming monitor)",
        epilog=_EXIT_CODE_HELP,
    )
    p_watch.add_argument(
        "trace", metavar="TRACE",
        help="JSONL trace file (a 'lineup live' recording, possibly "
             "still being written, or a --dump-traces file)",
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
        "--shards", type=int, default=1, metavar="N",
        help="fan partition cells across N sandboxed worker processes "
             "(needs a partitionable model; default: 1 = in-process)",
    )
    p_watch.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for --shards (default: min(shards, cores))",
    )
    p_watch.add_argument(
        "--lag-budget", type=float, metavar="SECONDS",
        help="exit LAGGED when unconsumed trace bytes persist this long "
             "(default: no budget)",
    )
    p_watch.add_argument(
        "--idle-timeout", type=float, metavar="SECONDS",
        help="with --follow: stop after this long without new bytes "
             "(default: wait forever)",
    )
    p_watch.add_argument(
        "--poll-interval", type=float, default=0.05, metavar="SECONDS",
        help="delay between polls when caught up (default: 0.05)",
    )
    p_watch.add_argument(
        "--stats-out", metavar="FILE",
        help="append periodic JSONL observability samples (ingest rate, "
             "frontier, retirement lag, memory high-water) to FILE",
    )
    p_watch.add_argument(
        "--stats-interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between stats samples (default: 1.0)",
    )
    p_watch.add_argument(
        "--monitor-engine", "--engine",
        dest="monitor_engine",
        choices=("auto", "wgl", "compositional", "specialized"),
        default="auto",
        help="offline engine for v1 (history-per-line) traces "
             "(default: auto)",
    )
    p_watch.add_argument(
        "--max-configurations", type=int, default=1_000_000, metavar="N",
        help="configuration cap per return: what one return's closure "
             "(v1: one record's search) may explore before its cell is "
             "EXHAUSTED (default: 1000000)",
    )
    p_watch.add_argument(
        "--json", action="store_true",
        help="print a one-line JSON result instead of the report",
    )
    p_watch.set_defaults(func=cmd_watch)

    p_obs = sub.add_parser(
        "observations", help="phase 1 only: write the observation file"
    )
    p_obs.add_argument("cls", metavar="CLASS")
    p_obs.add_argument("--test", metavar="MATRIX")
    p_obs.add_argument("--init", metavar="OPS")
    p_obs.add_argument("--final", metavar="OPS")
    p_obs.add_argument("--cause", metavar="TAG")
    p_obs.add_argument("--version", choices=("pre", "beta"), default="beta")
    p_obs.add_argument("-o", "--output", metavar="FILE")
    _add_provider_option(p_obs)
    p_obs.set_defaults(func=cmd_observations)

    p_repro = sub.add_parser(
        "reproduce", help="regenerate the paper's evaluation as markdown"
    )
    p_repro.add_argument("--samples", type=int, default=4)
    p_repro.add_argument("--rows", type=int, default=3)
    p_repro.add_argument("--cols", type=int, default=3)
    p_repro.add_argument("--schedules", type=int, default=150)
    p_repro.add_argument("--seed", type=int, default=1)
    p_repro.add_argument("-o", "--output", metavar="FILE")
    p_repro.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as exc:
        # A model that cannot read its input (name, method or arity unknown)
        # is an input error, not a FAIL; the default backend never loads one.
        from repro.monitor import ModelError

        if not isinstance(exc, ModelError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
