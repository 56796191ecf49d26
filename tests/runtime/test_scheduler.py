"""Scheduler core: serialization, exploration, blocking, stuck detection."""

from __future__ import annotations

import threading

import pytest

from repro.runtime import (
    DecisionReplayError,
    DFSStrategy,
    ExecutionAbort,
    RandomStrategy,
    ReplayStrategy,
    Runtime,
    Scheduler,
    SchedulerError,
    SchedulingStrategy,
)


def explore_all(scheduler, factory, strategy, serial=False, cap=None):
    outcomes = []
    for outcome in scheduler.explore(factory, strategy, serial=serial, max_executions=cap):
        outcomes.append(outcome)
    return outcomes


class TestBasicExecution:
    def test_single_thread_runs_to_completion(self, scheduler):
        ran = []
        outcome = scheduler.execute([lambda: ran.append(1)], DFSStrategy())
        assert outcome.status == "complete"
        assert ran == [1]

    def test_multiple_threads_all_run(self, scheduler):
        ran = []
        bodies = [lambda i=i: ran.append(i) for i in range(4)]
        outcome = scheduler.execute(bodies, DFSStrategy())
        assert outcome.status == "complete"
        assert sorted(ran) == [0, 1, 2, 3]

    def test_empty_bodies_rejected(self, scheduler):
        with pytest.raises(SchedulerError):
            scheduler.execute([], DFSStrategy())

    def test_current_thread_identity(self, scheduler):
        seen = {}

        def mk(i):
            return lambda: seen.setdefault(i, scheduler.current_thread())

        scheduler.execute([mk(0), mk(1), mk(2)], DFSStrategy())
        assert seen == {0: 0, 1: 1, 2: 2}

    def test_current_thread_outside_execution_raises(self, scheduler):
        with pytest.raises(SchedulerError):
            scheduler.current_thread()

    def test_access_from_a_foreign_os_thread_mid_execution_raises(self):
        """Baton only: its logical threads are OS threads, so an access
        from any other OS thread is misuse even while a worker runs (the
        helper thread here is not serialized with anything)."""
        sched = Scheduler()
        caught = []

        def body():
            cell = Runtime(sched).plain(7)

            def foreign():
                try:
                    cell.get()
                except SchedulerError as exc:
                    caught.append(exc)

            helper = threading.Thread(target=foreign)
            helper.start()
            helper.join(timeout=10)
            assert not helper.is_alive()
            assert cell.get() == 7  # the worker itself may

        try:
            outcome = sched.execute([body], DFSStrategy())
        finally:
            sched.shutdown()
        assert not outcome.crashes
        assert [a.kind for a in outcome.accesses] == ["read"]
        assert len(caught) == 1
        assert "not running on a scheduler-controlled thread" in str(caught[0])

    def test_outcome_steps_counted(self, scheduler, runtime):
        def factory():
            cell = runtime.volatile(0)
            return [lambda: (cell.get(), cell.set(1))]

        outcome = scheduler.execute(factory(), DFSStrategy())
        # first scheduling point is skipped as fresh, second counts
        assert outcome.steps == 1


class TestInterleavingEnumeration:
    def test_racy_increment_finds_lost_update(self, scheduler, runtime):
        finals = set()
        box = {}

        def factory():
            cell = runtime.volatile(0)
            box["cell"] = cell

            def body():
                v = cell.get()
                cell.set(v + 1)

            return [body, body]

        strategy = DFSStrategy()
        while strategy.more():
            scheduler.execute(factory(), strategy)
            finals.add(box["cell"].peek())
        assert finals == {1, 2}

    def test_three_thread_interleavings_counted(self, scheduler, runtime):
        # One volatile write per thread: orderings = 3! but many yield the
        # same final value; DFS must terminate and cover all final writers.
        finals = set()
        box = {}

        def factory():
            cell = runtime.volatile(None)
            box["cell"] = cell
            return [lambda i=i: cell.set(i) for i in range(3)]

        strategy = DFSStrategy()
        while strategy.more():
            scheduler.execute(factory(), strategy)
            finals.add(box["cell"].peek())
        assert finals == {0, 1, 2}

    def test_exploration_cap_respected(self, scheduler, runtime):
        def factory():
            cell = runtime.volatile(0)

            def body():
                for _ in range(3):
                    cell.set(cell.get() + 1)

            return [body, body]

        outcomes = explore_all(scheduler, factory, DFSStrategy(), cap=5)
        assert len(outcomes) == 5

    def test_serial_mode_counts_match_multinomial(self, scheduler):
        # 2 threads x 3 ops -> C(6,3) = 20 serial interleavings.
        log = []

        def factory():
            log.clear()

            def mk(tid):
                def body():
                    for i in range(3):
                        scheduler.schedule_point(boundary=True)
                        log.append((tid, i))

                return body

            return [mk(0), mk(1)]

        seen = set()
        strategy = DFSStrategy()
        count = 0
        while strategy.more():
            scheduler.execute(factory(), strategy, serial=True)
            seen.add(tuple(log))
            count += 1
        assert count == 20
        assert len(seen) == 20

    def test_serial_mode_ops_are_atomic(self, scheduler, runtime):
        # In serial mode the interior scheduling points never switch, so a
        # read-modify-write op is never torn.
        box = {}

        def factory():
            cell = runtime.volatile(0)
            box["cell"] = cell

            def body():
                scheduler.schedule_point(boundary=True)
                v = cell.get()
                cell.set(v + 1)

            return [body, body]

        strategy = DFSStrategy()
        while strategy.more():
            scheduler.execute(factory(), strategy, serial=True)
            assert box["cell"].peek() == 2


class TestBlockingAndStuck:
    def test_deadlock_detected_as_stuck(self, scheduler, runtime):
        def factory():
            flag = runtime.volatile(False)
            return [lambda: runtime.block_until(lambda: flag.peek())]

        outcome = scheduler.execute(factory(), DFSStrategy())
        assert outcome.status == "stuck"
        assert outcome.stuck_kind == "deadlock"
        assert outcome.pending_threads == (0,)

    def test_opposite_lock_order_deadlocks_somewhere(self, scheduler, runtime):
        def factory():
            l1, l2 = runtime.lock("l1"), runtime.lock("l2")

            def a():
                l1.acquire()
                l2.acquire()
                l2.release()
                l1.release()

            def b():
                l2.acquire()
                l1.acquire()
                l1.release()
                l2.release()

            return [a, b]

        outcomes = explore_all(scheduler, factory, DFSStrategy())
        assert any(o.status == "stuck" for o in outcomes)
        assert any(o.status != "stuck" for o in outcomes)

    def test_block_until_released_by_other_thread(self, scheduler, runtime):
        order = []

        def factory():
            order.clear()
            flag = runtime.volatile(False)

            def waiter():
                runtime.block_until(lambda: flag.peek())
                order.append("woke")

            def setter():
                flag.set(True)
                order.append("set")

            return [waiter, setter]

        outcomes = explore_all(scheduler, factory, DFSStrategy())
        assert all(o.status != "stuck" for o in outcomes)

    def test_livelock_budget_makes_execution_stuck(self, runtime):
        small = Scheduler(max_steps=50)
        rt = Runtime(small)

        def spin():
            while True:
                rt.yield_point()

        outcome = small.execute([spin], DFSStrategy())
        assert outcome.status == "stuck"
        assert outcome.stuck_kind == "livelock"
        small.shutdown()

    def test_serial_mode_block_is_immediately_stuck(self, scheduler, runtime):
        def factory():
            flag = runtime.volatile(False)

            def blocker():
                scheduler.schedule_point(boundary=True)
                runtime.block_until(lambda: flag.peek())

            def setter():
                scheduler.schedule_point(boundary=True)
                flag.set(True)

            return [blocker, setter]

        outcomes = explore_all(scheduler, factory, DFSStrategy(), serial=True)
        # The schedule that runs the blocker first gets stuck even though
        # the setter could have rescued it (serial histories cannot overlap).
        assert any(o.status == "stuck" for o in outcomes)
        assert any(o.status != "stuck" for o in outcomes)

    def test_harness_wait_does_not_stick_serial_mode(self, scheduler, runtime):
        def factory():
            flag = runtime.volatile(False)

            def gated():
                scheduler.block_until(lambda: flag.peek(), harness=True)

            def setter():
                scheduler.schedule_point(boundary=True)
                flag.set(True)

            return [gated, setter]

        outcomes = explore_all(scheduler, factory, DFSStrategy(), serial=True)
        assert all(o.status != "stuck" for o in outcomes)

    def test_scheduler_reusable_after_stuck_execution(self, scheduler, runtime):
        def stuck_factory():
            flag = runtime.volatile(False)
            return [lambda: runtime.block_until(lambda: flag.peek())]

        outcome = scheduler.execute(stuck_factory(), DFSStrategy())
        assert outcome.status == "stuck"
        ran = []
        outcome2 = scheduler.execute([lambda: ran.append(1)], DFSStrategy())
        assert outcome2.status == "complete"
        assert ran == [1]

    def test_stuck_with_unstarted_thread(self, scheduler, runtime):
        # Thread 1 deadlocks before thread 2 ever starts; teardown must
        # clean the unstarted assignment without running it.
        ran = []

        def factory():
            flag = runtime.volatile(False)
            return [
                lambda: runtime.block_until(lambda: False),
                lambda: ran.append("should not matter"),
            ]

        outcome = scheduler.execute(factory(), DFSStrategy())
        # Some schedule runs thread 2 first, but the DFS default runs
        # thread 1 first, which blocks forever while thread 2 is enabled;
        # with thread 2 also enabled the execution is NOT stuck until
        # thread 2 finishes too.
        assert outcome.status in ("complete", "stuck")


class TestChoose:
    def test_choose_enumerated_exhaustively(self, scheduler):
        seen = set()

        def factory():
            return [lambda: seen.add((scheduler.choose(2), scheduler.choose(2)))]

        explore_all(scheduler, factory, DFSStrategy())
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_choose_single_option_forced(self, scheduler):
        values = []

        def factory():
            return [lambda: values.append(scheduler.choose(1))]

        outcomes = explore_all(scheduler, factory, DFSStrategy())
        assert len(outcomes) == 1
        assert values == [0]

    def test_choose_invalid_raises(self, scheduler):
        errors = []

        def factory():
            def body():
                try:
                    scheduler.choose(0)
                except ValueError as exc:
                    errors.append(exc)

            return [body]

        scheduler.execute(factory(), DFSStrategy())
        assert len(errors) == 1


class TestReplay:
    def test_replay_reproduces_exact_final_state(self, scheduler, runtime):
        box = {}

        def factory():
            cell = runtime.volatile(0)
            box["cell"] = cell

            def body():
                v = cell.get()
                cell.set(v + 1)

            return [body, body]

        # Find the buggy (lost update) execution with DFS.
        strategy = DFSStrategy()
        bad = None
        while strategy.more():
            outcome = scheduler.execute(factory(), strategy)
            if box["cell"].peek() == 1:
                bad = outcome
                break
        assert bad is not None
        # Replay its decision trace: same final state.
        replay = ReplayStrategy(bad.decisions)
        scheduler.execute(factory(), replay)
        assert box["cell"].peek() == 1

    def test_decisions_recorded_with_options(self, scheduler, runtime):
        def factory():
            cell = runtime.volatile(0)

            def body():
                cell.set(1)

            return [body, body]

        outcome = scheduler.execute(factory(), DFSStrategy())
        assert outcome.decisions
        for decision in outcome.decisions:
            assert decision.chosen in decision.options


class TestRandomStrategy:
    def test_random_walk_is_seed_deterministic(self, scheduler, runtime):
        def run(seed):
            finals = []
            box = {}

            def factory():
                cell = runtime.volatile(0)
                box["cell"] = cell

                def body():
                    v = cell.get()
                    cell.set(v + 1)

                return [body, body]

            strategy = RandomStrategy(executions=30, seed=seed)
            while strategy.more():
                scheduler.execute(factory(), strategy)
                finals.append(box["cell"].peek())
            return finals

        assert run(7) == run(7)

    def test_random_walk_finds_race_eventually(self, scheduler, runtime):
        box = {}

        def factory():
            cell = runtime.volatile(0)
            box["cell"] = cell

            def body():
                v = cell.get()
                cell.set(v + 1)

            return [body, body]

        strategy = RandomStrategy(executions=100, seed=3)
        finals = set()
        while strategy.more():
            scheduler.execute(factory(), strategy)
            finals.add(box["cell"].peek())
        assert finals == {1, 2}


class _Saboteur(SchedulingStrategy):
    """Takes the first option, except at its *at*-th consultation (and, to
    ``keep-raising``, at every later one)."""

    def __init__(self, at, fault):
        self.at, self.fault = at, fault

    def more(self):
        return True

    def begin(self):
        self.consulted = 0

    def decide(self, kind, options, running, free):
        self.consulted += 1
        if self.consulted < self.at or (
            self.consulted > self.at and self.fault != "keep-raising"
        ):
            return options[0]
        if self.fault == "mischoose":
            return -1  # never among the options
        raise DecisionReplayError("sabotaged")

    def finish(self, outcome):
        pass


def _writers(n):
    """*n* one-step bodies: every decision but the initial pick is taken
    when a thread completes."""

    def program(scheduler, runtime):
        cell = runtime.volatile(None)

        def make(i):
            def body():
                cell.set(i)

            return body

        return [make(i) for i in range(n)]

    return program


def _incrementers(scheduler, runtime):
    """Two read-then-write bodies: the write is a mid-body decision."""
    cell = runtime.volatile(0)

    def body():
        cell.set(cell.get() + 1)

    return [body, body]


def _own_predicate_raises(scheduler, runtime):
    def body():
        scheduler.block_until(lambda: 1 // 0)

    return [body]


def _predicate_raises_on_a_later_poll(scheduler, runtime):
    """The third evaluation — thread 1's enabled-set scan — raises."""
    cell = runtime.volatile(0)
    polls = []

    def predicate():
        polls.append(None)
        if len(polls) == 3:
            raise ZeroDivisionError
        return len(polls) > 3

    def waiter():
        scheduler.block_until(predicate)

    def stepper():
        cell.set(cell.get() + 1)

    return [waiter, stepper]


def _blocked_beside_two(scheduler, runtime):
    """Thread 0 blocks with two threads enabled: its wait is a decision."""

    def waiter():
        scheduler.block_until(lambda: False)

    def other():
        pass

    return [waiter, other, other]


def _choose_nothing(scheduler, runtime):
    def body():
        scheduler.choose(0)

    return [body]


def _spontaneous_abort(scheduler, runtime):
    def aborter():
        raise ExecutionAbort()

    def other():
        pass

    return [aborter, other]


def _thread(chosen, options, running, free=True):
    return ("thread", options, chosen, running, free)


#: Thread 0 crashes at its write decision (not recorded); thread 1 runs on.
_AFTER_MID_BODY_CRASH = [
    _thread(0, (0, 1), None), _thread(1, (1,), 0), _thread(1, (1,), 1, False),
]

#: program, strategy -> what ``execute`` raises, or its (status, stuck_kind,
#: crashes as (tid, type), decision trace).  Decisions taken while a body
#: runs surface inside it; the initial pick and the picks at a thread's
#: completion have no body to raise in and leave ``execute``.
ERROR_SURFACING = {
    "raise-at-initial-pick": (
        _incrementers, lambda: _Saboteur(1, "raise"), DecisionReplayError,
    ),
    "mischoose-at-initial-pick": (
        _incrementers, lambda: _Saboteur(1, "mischoose"), SchedulerError,
    ),
    "raise-mid-body": (
        _incrementers,
        lambda: _Saboteur(2, "raise"),
        (
            "complete",
            None,
            [(0, DecisionReplayError)],
            _AFTER_MID_BODY_CRASH,
        ),
    ),
    "mischoose-mid-body": (
        _incrementers,
        lambda: _Saboteur(2, "mischoose"),
        (
            "complete",
            None,
            [(0, SchedulerError)],
            _AFTER_MID_BODY_CRASH,
        ),
    ),
    "raise-at-thread-completion": (
        _writers(3), lambda: _Saboteur(2, "raise"), DecisionReplayError,
    ),
    "mischoose-at-thread-completion": (
        _writers(3), lambda: _Saboteur(2, "mischoose"), SchedulerError,
    ),
    # The waiter crashes inside block_until (it used to spin there on coop),
    # then the pick at its completion raises again, out of execute().
    "keep-raising-from-a-blocking-wait": (
        _blocked_beside_two, lambda: _Saboteur(2, "keep-raising"), DecisionReplayError,
    ),
    "own-predicate-raises": (
        _own_predicate_raises,
        DFSStrategy,
        ("complete", None, [(0, ZeroDivisionError)], [_thread(0, (0,), None)]),
    ),
    "predicate-raises-on-a-later-poll": (
        _predicate_raises_on_a_later_poll,
        DFSStrategy,
        (
            "complete",
            None,
            [(1, ZeroDivisionError)],
            [
                _thread(0, (0, 1), None),
                _thread(1, (1,), 0, False),
                _thread(0, (0,), 1),
            ],
        ),
    ),
    "choose-zero": (
        _choose_nothing,
        DFSStrategy,
        ("complete", None, [(0, ValueError)], [_thread(0, (0,), None)]),
    ),
    "spontaneous-abort": (
        _spontaneous_abort,
        DFSStrategy,
        ("complete", None, [], [_thread(0, (0, 1), None), _thread(1, (1,), 0)]),
    ),
}


def _observe(scheduler, bodies, strategy):
    """One execution under a join timeout: a hang is a red test, not a
    stuck job."""
    seen = []

    def run():
        try:
            outcome = scheduler.execute(bodies, strategy)
        except Exception as exc:
            seen.append(type(exc))
        else:
            seen.append(
                (
                    outcome.status,
                    outcome.stuck_kind,
                    [(tid, type(exc)) for tid, exc in outcome.crashes],
                    [
                        (d.kind, d.options, d.chosen, d.running, d.free)
                        for d in outcome.decisions
                    ],
                )
            )

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=10)
    assert not runner.is_alive(), "execute() hung"
    return seen[0]


class TestErrorSurfacing:
    @pytest.mark.parametrize("case", sorted(ERROR_SURFACING))
    def test_error_surfaces_where_the_core_says(self, scheduler, runtime, case):
        program, strategy, expected = ERROR_SURFACING[case]
        assert _observe(scheduler, program(scheduler, runtime), strategy()) == expected
        # Whatever happened, the scheduler is ready for the next execution.
        ran = []
        after = _observe(
            scheduler, [lambda: ran.append(0), lambda: ran.append(1)], DFSStrategy()
        )
        assert after[0] == "complete" and sorted(ran) == [0, 1]

    @pytest.mark.parametrize("watchdog", [None, 0.5])
    def test_short_replay_script_is_an_error_not_a_hang(self, scheduler, watchdog):
        """The drift the two engine copies hid: on baton this hung (or, with
        a watchdog, came back ``divergent`` and poisoned the pool)."""
        sched = type(scheduler)(watchdog=watchdog)
        try:
            program = _writers(3)
            recorded = sched.execute(program(sched, Runtime(sched)), DFSStrategy())
            first_branch = [d for d in recorded.decisions if len(d.options) > 1][:1]
            replayed = _observe(
                sched, program(sched, Runtime(sched)), ReplayStrategy(first_branch)
            )
            assert replayed is DecisionReplayError
            after = _observe(sched, program(sched, Runtime(sched)), DFSStrategy())
            assert after[0] == "complete"
        finally:
            sched.shutdown()
