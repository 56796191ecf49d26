"""Phase 2 with its PASS memo against phase 2 judging every execution.

``_run_phase2`` remembers the histories that passed and skips the decider
when one comes back (the harness's per-test event table gives equal
histories equal keys).  ``_reference_phase2`` below is the same loop with
the decider forced on every execution; the two must agree on everything a
user can see — verdict, counters, classes, and each violation's kind,
history, decisions and pending operation — and ``phase2_judged`` must be
exactly the number of executions the memo could not answer.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cli import parse_test
from repro.core import (
    DOTNET_POLICIES,
    CheckConfig,
    FiniteTest,
    History,
    InterferencePolicy,
    InterferenceRule,
    Invocation,
    ObservationSet,
    SystemUnderTest,
    TestHarness,
    check,
    check_relaxed,
)
from repro.core import checker
from repro.core.budget import ExplorationBudget
from repro.core.checker import CheckResult, check_against_observations
from repro.core.checkpoint import Checkpointer, load_checkpoint, parse_check_state
from repro.core.events import Response, typed
from repro.core.history import SerialHistory, SerialStep
from repro.core.multi import check_multi
from repro.core.testcase import sample_tests
from repro.reduction import FingerprintSet, execution_fingerprint
from repro.runtime import RandomStrategy
from repro.structures.counters import BuggyCounter1, Counter
from repro.structures.registry import REGISTRY, get_class
from repro.structures.work_stealing_deque import WorkStealingDeque

from tests.reduction.reference import reference_execution_fingerprint

#: Executions compared per row (both loops stop there).
CAP = 120
GATE = parse_test("Enqueue(1); TryDequeue | Enqueue(2) | TryDequeue")


def _subject(name: str, version: str) -> SystemUnderTest:
    return SystemUnderTest(get_class(name).factory(version), f"{name}({version})")


def _typed_text(history: History) -> tuple | None:
    """An independent rendering of what the memo keys on: the events'
    ``repr`` (exact for plain values), None when a value is not plain."""
    try:
        for event in history.events:
            if event.response is not None:
                typed(event.response.value)
    except TypeError:
        return None
    return (history.stuck, history.divergent, *map(repr, history.events))


def _reference_phase2(
    harness, test, observations, cfg, judge=None, result=None
) -> CheckResult:
    """``_run_phase2`` with the judge run on every execution.

    *judge* defaults to the decider ``cfg`` names; *result* to a fresh
    one (pass the caller's to stand in for ``checker._run_phase2``).
    """
    if result is None:
        result = CheckResult(verdict="PASS", test=test, observations=observations)
    if judge is None and cfg.backend == "monitor":
        from repro.monitor import get_model

        model = get_model(cfg.model)
        judge = lambda history, outcome: checker._monitor_violation(  # noqa: E731
            history, model, cfg, test, outcome
        )
    elif judge is None:
        judge = lambda history, outcome: checker._observation_violation(  # noqa: E731
            history, observations, test, outcome
        )
    fingerprints = FingerprintSet()
    passed = set()
    for history, outcome in harness.explore_concurrent(
        test, cfg.make_phase2_strategy(), cfg.max_concurrent_executions
    ):
        result.phase2_executions += 1
        fingerprints.add(execution_fingerprint(outcome))
        if history.stuck:
            result.phase2_stuck += 1
            result.phase2_divergent += history.divergent
        else:
            result.phase2_full += 1
        violation = judge(history, outcome)
        # What the shipped loop is allowed to skip: exactly the repeats of
        # a history that passed before.
        text = _typed_text(history)
        if text is None or text not in passed:
            result.phase2_judged += 1
            if violation is None and text is not None:
                passed.add(text)
        if violation is not None:
            result.verdict = "FAIL"
            result.violations.append(violation)
            if cfg.stop_at_first_violation:
                break
    result.equivalence_classes = len(fingerprints)
    return result


def _visible(result: CheckResult) -> dict:
    return {
        "verdict": result.verdict,
        "executions": result.phase2_executions,
        "full": result.phase2_full,
        "stuck": result.phase2_stuck,
        "divergent": result.phase2_divergent,
        "judged": result.phase2_judged,
        "classes": result.equivalence_classes,
        "violations": [
            (v.kind, v.history, v.decisions, v.pending_op) for v in result.violations
        ],
    }


def _assert_memo_is_invisible(subject, test, cfg, observations=None) -> CheckResult:
    """Run both loops on *test*; return the shipped loop's result."""
    with TestHarness(subject, engine=cfg.engine) as harness:
        if observations is None and cfg.backend == "observations":
            observations, _ = harness.run_serial(test)
        reference = _reference_phase2(harness, test, observations, cfg)
    # A fresh harness, like the fresh process a user's second run is.
    with TestHarness(subject, engine=cfg.engine) as harness:
        if cfg.backend == "monitor":
            shipped = checker.check_with_harness(harness, test, cfg)
        else:
            shipped = check_against_observations(harness, test, observations, cfg)
    assert _visible(shipped) == _visible(reference)
    return shipped


def _sampled(entry, cols: int) -> FiniteTest:
    return sample_tests(
        list(entry.invocations), 2, cols, 1, seed=cols, init=entry.init
    )[0]


#: The paper's seven real bugs: root cause -> the class it is checked on
#: (``check <class> --version pre --cause <tag>``).
SEVEN = {
    "A": "ManualResetEvent",
    "B": "SemaphoreSlim",
    "C": "CountdownEvent",
    "D": "ConcurrentQueue",
    "E": "ConcurrentDictionary",
    "F": "ConcurrentStack",
    "G": "Lazy",
}



def _witness(tag: str) -> FiniteTest:
    """The curated failing test of root cause *tag* on its class."""
    causes = get_class(SEVEN[tag]).causes_for("pre")
    return next(cause.witness_test for cause in causes if cause.tag == tag)


#: (class, version, test, monitor model or None, known verdict or None).
ROWS = (
    [
        pytest.param(
            entry.name, version, _sampled(entry, cols), None, None,
            id=f"{entry.name}-{version}-{cols}t",
        )
        for entry in REGISTRY
        for version in ("pre", "beta")
        for cols in (2, 3)
    ]
    + [
        pytest.param(name, "pre", _witness(tag), None, "FAIL", id=f"cause-{tag}")
        for tag, name in SEVEN.items()
    ]
    + [
        pytest.param(
            name, version, test, model, verdict, id=f"monitor-{model}-{version}"
        )
        for name, version, model, verdict, test in [
            ("ConcurrentQueue", "beta", "queue", "PASS",
             parse_test("Enqueue(1); TryDequeue | Enqueue(2); TryDequeue")),
            ("ConcurrentQueue", "pre", "queue", "FAIL", _witness("D")),
            ("ConcurrentStack", "beta", "stack", "PASS",
             parse_test("Push(1); TryPop | Push(2) | TryPop")),
            ("ConcurrentDictionary", "beta", "dict", "PASS",
             parse_test("TryAdd(10); TryRemove(10) | TryAdd(10); TryGetValue(10)")),
        ]
    ]
)


class TestDifferential:
    def test_the_table_covers_every_registered_structure(self):
        assert len(ROWS) == 13 * 2 * 2 + 7 + 4

    @pytest.mark.parametrize("stop", [True, False], ids=["stop", "all"])
    @pytest.mark.parametrize("name, version, test, model, verdict", ROWS)
    def test_same_result_as_judging_every_execution(
        self, name, version, test, model, verdict, stop
    ):
        cfg = CheckConfig(max_concurrent_executions=CAP, stop_at_first_violation=stop)
        if model is not None:
            cfg = replace(cfg, backend="monitor", model=model)
        shipped = _assert_memo_is_invisible(_subject(name, version), test, cfg)
        assert shipped.phase2_judged <= shipped.phase2_executions
        assert verdict in (None, shipped.verdict)
        if stop:
            assert len(shipped.violations) == shipped.failed

    def test_a_full_memo_is_cleared_not_trusted(self, monkeypatch):
        monkeypatch.setattr(checker, "_PASS_MEMO_LIMIT", 3)
        test = parse_test("Enqueue(1); TryDequeue | Enqueue(2); TryDequeue")
        subject = _subject("ConcurrentQueue", "beta")
        with TestHarness(subject) as harness:
            observations, _ = harness.run_serial(test)
            reference = _reference_phase2(harness, test, observations, CheckConfig())
            shipped = check_against_observations(harness, test, observations)
        # Forgetting costs decider runs and nothing else.
        assert shipped.phase2_judged > reference.phase2_judged
        assert _visible(shipped) == {
            **_visible(reference), "judged": shipped.phase2_judged
        }


class TestPins:
    def test_gate_test_judges_499_of_3747(self):
        result = check(_subject("ConcurrentQueue", "beta"), GATE)
        assert result.passed
        assert (result.phase1.executions, result.phase2_executions) == (12, 3747)
        assert result.equivalence_classes == 1446
        assert result.phase2_judged == 499

    def test_judged_is_checkpointed_and_a_missing_key_reads_zero(self, tmp_path):
        path = str(tmp_path / "ck.json")
        subject = _subject("ConcurrentQueue", "beta")
        cut = check(
            subject,
            GATE,
            CheckConfig(budget=ExplorationBudget(max_executions=212)),
            checkpointer=Checkpointer(path),
        )
        assert cut.exhausted
        document = load_checkpoint(path)
        assert document["phase2"]["judged"] == cut.phase2_judged > 0
        _, cfg, resume = parse_check_state(document)
        # The memo is not checkpointed: the resumed run judges afresh, so
        # the total is the two sessions' sum and at least the distinct count.
        done = check(subject, GATE, replace(cfg, budget=None), resume=resume)
        assert (done.phase2_executions, done.equivalence_classes) == (3747, 1446)
        assert 499 <= done.phase2_judged <= 499 + cut.phase2_judged
        del document["phase2"]["judged"]  # a checkpoint written before this count
        _, cfg, resume = parse_check_state(document)
        old = check(subject, GATE, replace(cfg, budget=None), resume=resume)
        assert old.phase2_judged == done.phase2_judged - cut.phase2_judged

    def test_executions_record_the_same_event_objects_in_both_phases(self):
        with TestHarness(_subject("ConcurrentQueue", "beta")) as harness:
            serial = list(harness.explore_serial(GATE, checker.DFSStrategy(None), 3))
            explored = harness.explore_concurrent(GATE, checker.DFSStrategy(2), 40)
            concurrent = [outcome for _, outcome in explored]
        calls = {}
        returns = {}
        for outcome in serial + concurrent:
            for event in outcome.events:
                known = calls if event.is_call else returns
                assert known.setdefault(repr(event), event) is event
        assert len(calls) == 4 and len(returns) > 4


class Scripted:
    """``Get`` returns the next value of a script shared by all instances
    (one instance per execution, so the executions walk the script)."""

    script: list = []
    position = 0

    def __init__(self, runtime):
        cls = type(self)
        self._value = cls.script[cls.position % len(cls.script)]
        cls.position += 1

    def Get(self):
        return self._value


def _scripted(values) -> SystemUnderTest:
    Scripted.script, Scripted.position = list(values), 0
    return SystemUnderTest(Scripted, "scripted")


def _accepting(values) -> ObservationSet:
    """A specification in which ``Get`` may return any of *values*."""
    observations = ObservationSet(1)
    for value in values:
        step = SerialStep(0, Invocation("Get"), Response.of(value))
        observations.add(SerialHistory((step,)))
    return observations


ONE_GET = FiniteTest.of([[Invocation("Get")]])
LOOKALIKES = [1, True, 1.0, (1,), (True,)]


class TestTypedKeys:
    def _run(self, values, executions, monkeypatch, observations, stub=False):
        judged = []
        decide = checker._observation_violation

        def spy(history, *rest):
            judged.append(history.events[-1].response.value)
            return None if stub else decide(history, *rest)

        monkeypatch.setattr(checker, "_observation_violation", spy)
        cfg = CheckConfig(phase2_strategy="random", phase2_executions=executions)
        with TestHarness(_scripted(values)) as harness:
            result = check_against_observations(harness, ONE_GET, observations, cfg)
            table = harness._events(ONE_GET)
        assert result.passed and result.phase2_executions == executions
        assert result.phase2_judged == len(judged)
        return result, judged, table

    def test_equal_values_of_different_types_are_judged_each_on_its_own(
        self, monkeypatch
    ):
        result, judged, table = self._run(
            LOOKALIKES, 10, monkeypatch, _accepting(LOOKALIKES)
        )
        # All five compare equal pairwise (within scalars / within tuples)
        # and four are interned — under four codes; the float is not plain
        # (0.0 == -0.0) and is judged every time it comes back.
        assert list(map(repr, judged)) == ["1", "True", "1.0", "(1,)", "(True,)", "1.0"]
        interned = sorted(repr(e.response.value) for e in table.returns.values())
        assert interned == ["(1,)", "(True,)", "1", "True"]
        assert len({table.codes[id(e)] for e in table.returns.values()}) == 4
        assert result.equivalence_classes == 5  # and five digests

    def test_an_unhashable_response_is_never_interned(self, monkeypatch):
        # (The witness search hashes responses, so the decider is a stub.)
        result, judged, table = self._run(
            [[1], [1]], 6, monkeypatch, ObservationSet(1), stub=True
        )
        assert judged == [[1]] * 6
        assert not table.returns
        assert result.equivalence_classes == 1

    def test_histories_without_a_key_come_from_explore_concurrent_as_none(self):
        with TestHarness(_scripted([[1], 1])) as harness:
            first, second = (
                history
                for history, _ in harness.explore_concurrent(
                    ONE_GET, RandomStrategy(2)
                )
            )
        assert first.key is None
        assert second.key is not None and second == History(second.events, 1)


class TestKeys:
    def test_how_an_execution_ended_is_part_of_the_key(self):
        test = parse_test("Enqueue(1) | TryDequeue")
        with TestHarness(_subject("ConcurrentQueue", "beta")) as harness:
            history, _ = next(harness.explore_concurrent(test, checker.DFSStrategy(2)))
            table = harness._events(test)
            complete = history.key
            stuck = table.history_key(History(history.events, 2, stuck=True))
            divergent = table.history_key(
                History(history.events, 2, stuck=True, divergent=True)
            )
        assert complete is not None
        assert len({complete, stuck, divergent}) == 3
        assert complete[2:] == stuck[2:] == divergent[2:]

    def test_an_equal_event_from_elsewhere_has_no_key(self):
        test = parse_test("Enqueue(1) | TryDequeue")
        with TestHarness(_subject("ConcurrentQueue", "beta")) as harness:
            history, _ = next(harness.explore_concurrent(test, checker.DFSStrategy(2)))
            copies = [replace(event) for event in history.events]
            assert copies == list(history.events)
            assert harness._events(test).history_key(History(copies, 2)) is None


class Putter:
    def __init__(self, runtime):
        self._cell = runtime.volatile(None)

    def Put(self, value):
        self._cell.set(value)
        return self._cell.get()


class TestHarnessReuse:
    def test_the_table_does_not_leak_into_the_next_test(self):
        """``Put(1)`` and ``Put(True)`` are equal tests with equal slots;
        only their ``repr`` — and so their digests — differ."""
        tests = [
            FiniteTest.of([[Invocation("Put", (value,))], [Invocation("Put", (2,))]])
            for value in (1, True)
        ]
        assert tests[0] == tests[1]
        subject = SystemUnderTest(Putter, "putter")

        def explore(harness, test):
            seen = []
            for history, outcome in harness.explore_concurrent(
                test, checker.DFSStrategy(2)
            ):
                assert execution_fingerprint(
                    outcome
                ) == reference_execution_fingerprint(outcome)
                seen.append((history.key, execution_fingerprint(outcome)))
            return seen

        with TestHarness(subject) as shared:
            reused = [explore(shared, test) for test in tests]
        fresh = []
        for test in tests:
            with TestHarness(subject) as harness:
                fresh.append(explore(harness, test))
        for got, want in zip(reused, fresh):
            assert [digest for _, digest in got] == [digest for _, digest in want]
        assert {d for _, d in reused[0]}.isdisjoint(d for _, d in reused[1])
        # Codes never repeat within a harness, so neither do keys.
        assert {k for k, _ in reused[0]}.isdisjoint(k for k, _ in reused[1])
        assert None not in {k for run in reused for k, _ in run}


def _cause(name: str, tag: str) -> FiniteTest:
    return next(c.witness_test for c in get_class(name).causes if c.tag == tag)


def _target(method: str, target: str) -> Invocation:
    return Invocation(method, (), target=target)


#: The two-account bank of ``examples/multi_object_bank.py``.
BANK = FiniteTest.of(
    [
        [_target("inc", "checking"), _target("inc", "savings")],
        [_target("get", "checking"), _target("inc", "savings")],
        [_target("get", "savings")],
    ]
)


def _bank(savings) -> SystemUnderTest:
    return SystemUnderTest(
        lambda rt: {"checking": Counter(rt), "savings": savings(rt)}, "bank"
    )


def _relaxed(policy):
    return lambda harness, test, cfg: check_relaxed(harness, test, cfg, policy)


TWO_THIEVES = FiniteTest.of(
    [
        [Invocation("PushBottom", (1,)), Invocation("PushBottom", (2,))],
        [Invocation("Steal")],
        [Invocation("Steal")],
    ]
)
STEAL_POLICY = InterferencePolicy([InterferenceRule("Steal", interferers=("Steal",))])

#: (subject, test, entry point ``(harness, test, cfg) -> result``, verdict).
JUDGE_ROWS = [
    pytest.param(
        _subject(name, "beta"), _cause(name, tag),
        _relaxed(DOTNET_POLICIES[name]), "PASS", id=f"relaxed-{tag}",
    )
    for name, tag in [
        ("ConcurrentBag", "H"), ("BlockingCollection", "I"), ("BlockingCollection", "J")
    ]
] + [
    pytest.param(
        _subject("ConcurrentBag", "beta"), _cause("ConcurrentBag", "H"),
        _relaxed(None), "FAIL", id="relaxed-H-no-policy",
    ),
    pytest.param(
        SystemUnderTest(lambda rt: WorkStealingDeque(rt, "beta", capacity=4), "wsd"),
        TWO_THIEVES, _relaxed(STEAL_POLICY), "PASS", id="relaxed-two-thieves",
    ),
    pytest.param(_bank(Counter), BANK, check_multi, "PASS", id="multi-bank-correct"),
    pytest.param(_bank(BuggyCounter1), BANK, check_multi, "FAIL", id="multi-bank-buggy"),
]


class TestJudges:
    """The relaxed and the multi-object judge run on ``_run_phase2`` too:
    the same differential, with the entry point's own judge handed to the
    reference loop."""

    @staticmethod
    def _through_reference_loop(monkeypatch, run):
        def reference(harness, test, observations, cfg, result, *, judge=None, **_):
            _reference_phase2(harness, test, observations, cfg, judge, result)

        with monkeypatch.context() as patch:
            patch.setattr(checker, "_run_phase2", reference)
            return run()

    @pytest.mark.parametrize("stop", [True, False], ids=["stop", "all"])
    @pytest.mark.parametrize("subject, test, entry, verdict", JUDGE_ROWS)
    def test_same_result_as_judging_every_execution(
        self, subject, test, entry, verdict, stop, monkeypatch
    ):
        cfg = CheckConfig(max_concurrent_executions=4 * CAP, stop_at_first_violation=stop)
        with TestHarness(subject) as harness:
            reference = self._through_reference_loop(
                monkeypatch, lambda: entry(harness, test, cfg)
            )
        with TestHarness(subject) as harness:
            shipped = entry(harness, test, cfg)
        assert shipped.verdict == verdict
        # A reduced specification synthesized mid-run swaps the event table
        # (see the next test), which forgets the memo: more decider runs
        # than the distinct histories, never a different answer.
        assert _visible(shipped) == {
            **_visible(reference), "judged": shipped.phase2_judged
        }
        assert (
            reference.phase2_judged
            <= shipped.phase2_judged
            <= shipped.phase2_executions
        )
        assert getattr(shipped, "failed_object", None) == getattr(
            reference, "failed_object", None
        )
        if verdict == "PASS":
            # Some history came back, and the memo answered for it.
            assert shipped.phase2_judged < shipped.phase2_executions

    def test_keys_from_before_a_table_swap_never_match_after(self, monkeypatch):
        """The relaxed judge synthesizes a reduced specification in the
        middle of phase 2 — ``run_serial`` on the reduced test — and that
        replaces the harness's event table.  Codes never repeat within a
        harness, so a key remembered before the swap answers for nothing
        after it (it costs decider runs, never a verdict)."""
        tables, keyed = [], []
        decide = checker._observation_violation

        with TestHarness(_subject("ConcurrentBag", "beta")) as harness:

            def spy(history, *rest):
                if history.key is not None:  # a reduced history has none
                    if not tables or tables[-1] is not harness._table:
                        tables.append(harness._table)  # (kept alive: ids stay unique)
                    keyed.append((len(tables), history.key))
                return decide(history, *rest)

            monkeypatch.setattr(checker, "_observation_violation", spy)
            swaps = []
            run_serial = harness.run_serial

            def counted_run_serial(*args, **kwargs):
                swaps.append(len(keyed))  # histories keyed before this call
                return run_serial(*args, **kwargs)

            monkeypatch.setattr(harness, "run_serial", counted_run_serial)
            result = check_relaxed(
                harness, _cause("ConcurrentBag", "H"), CheckConfig(),
                DOTNET_POLICIES["ConcurrentBag"],
            )
        assert result.passed
        # Phase 1, then at least one reduced specification mid-phase-2.
        assert swaps[0] == 0 and any(swaps[1:])
        assert len(tables) > 1
        by_table = [
            {key for table, key in keyed if table == number}
            for number in range(1, len(tables) + 1)
        ]
        for earlier, later in zip(by_table, by_table[1:]):
            assert earlier.isdisjoint(later)
        assert len(set().union(*by_table)) == sum(map(len, by_table))
