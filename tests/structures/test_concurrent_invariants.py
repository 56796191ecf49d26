"""Semantic invariants of the beta classes under exhaustive exploration.

Linearizability checking validates *observable* behaviour; these tests
additionally pin internal conservation invariants over every explored
interleaving — elements are neither duplicated nor lost, counters stay
in range, one-shot transitions have a single winner.
"""

from __future__ import annotations

from repro.runtime import DFSStrategy
from repro.structures import (
    ConcurrentBag,
    ConcurrentDictionary,
    ConcurrentQueue,
    ConcurrentStack,
    SemaphoreSlim,
    TaskCompletionSource,
)


def explore(scheduler, factory, per_execution_check, bound=2, cap=4000):
    strategy = DFSStrategy(preemption_bound=bound)
    executions = 0
    while strategy.more() and executions < cap:
        outcome = scheduler.execute(factory(), strategy)
        executions += 1
        per_execution_check(outcome)
    return executions


def queue_contents(queue) -> list:
    """Raw walk of the queue's chain (controller-side, no scheduling)."""
    out = []
    node = queue._head.peek().next.peek()
    while node is not None:
        out.append(node.value)
        node = node.next.peek()
    return out


class TestQueueConservation:
    def test_elements_never_duplicated_or_invented(self, scheduler, runtime):
        def factory():
            queue = ConcurrentQueue(runtime, "beta")
            takes = []

            def producer(value):
                def body():
                    queue.Enqueue(value)

                return body

            def consumer():
                takes.append(queue.TryDequeue())
                takes.append(queue.TryDequeue())

            factory.queue = queue
            factory.takes = takes
            return [producer(1), producer(2), consumer]

        def check_outcome(outcome):
            assert outcome.status != "stuck"
            got = [v for v in factory.takes if v != "Fail"]
            remaining = queue_contents(factory.queue)
            assert sorted(got + remaining) == sorted(
                set(got + remaining)
            )  # no duplicates
            assert set(got + remaining) <= {1, 2}
            assert len(got) + len(remaining) == 2  # nothing lost

        explore(scheduler, factory, check_outcome)

    def test_fifo_per_producer(self, scheduler, runtime):
        def factory():
            queue = ConcurrentQueue(runtime, "beta")
            takes = []

            def producer():
                queue.Enqueue(1)
                queue.Enqueue(2)

            def consumer():
                for _ in range(2):
                    takes.append(queue.TryDequeue())

            factory.takes = takes
            return [producer, consumer]

        def check_outcome(outcome):
            got = [v for v in factory.takes if v != "Fail"]
            assert got == sorted(got)  # 1 before 2, always

        explore(scheduler, factory, check_outcome)


class TestStackConservation:
    def test_pop_range_conserves_elements(self, scheduler, runtime):
        def factory():
            stack = ConcurrentStack(runtime, "beta")
            popped = []

            def pusher():
                stack.Push(1)
                stack.Push(2)

            def popper():
                popped.extend(stack.TryPopRange(2))

            factory.stack = stack
            factory.popped = popped
            return [pusher, popper]

        def check_outcome(outcome):
            remaining = factory.stack._walk(factory.stack._head.peek())
            everything = sorted(factory.popped + remaining)
            assert everything == sorted(set(everything))
            assert len(everything) == 2

        explore(scheduler, factory, check_outcome)


class TestSemaphoreInvariant:
    def test_count_never_negative_in_beta(self, scheduler, runtime):
        def factory():
            semaphore = SemaphoreSlim(runtime, "beta", initial=1)
            factory.sem = semaphore

            def taker():
                semaphore.WaitZero()
                assert semaphore.CurrentCount() >= 0

            return [taker, taker]

        def check_outcome(outcome):
            assert not outcome.crashes  # the in-thread assertions held
            assert factory.sem._count.peek() >= 0

        explore(scheduler, factory, check_outcome)

    def test_permits_conserved(self, scheduler, runtime):
        def factory():
            semaphore = SemaphoreSlim(runtime, "beta", initial=2)
            taken = []

            def taker():
                if semaphore.WaitZero():
                    taken.append(1)

            factory.sem = semaphore
            factory.taken = taken
            return [taker, taker, taker]

        def check_outcome(outcome):
            remaining = factory.sem._count.peek()
            assert len(factory.taken) + remaining == 2

        explore(scheduler, factory, check_outcome)


class TestDictionaryInvariants:
    def test_tryadd_single_winner(self, scheduler, runtime):
        def factory():
            dictionary = ConcurrentDictionary(runtime, "beta")
            wins = []

            def adder():
                if dictionary.TryAdd(10):
                    wins.append(1)

            factory.wins = wins
            return [adder, adder, adder]

        def check_outcome(outcome):
            assert len(factory.wins) == 1

        explore(scheduler, factory, check_outcome, cap=3000)

    def test_remove_add_count_consistent(self, scheduler, runtime):
        def factory():
            dictionary = ConcurrentDictionary(runtime, "beta")

            def mutate():
                dictionary.TryAdd(10)
                dictionary.TryRemove(10)

            factory.d = dictionary
            return [mutate, mutate]

        def check_outcome(outcome):
            # After all ops, sizes match bucket contents exactly.
            d = factory.d
            for i in range(d._n):
                assert d._sizes[i].peek() == len(d._buckets[i]._items)

        explore(scheduler, factory, check_outcome, cap=3000)


class TestBagConservation:
    def test_elements_conserved_across_stealing(self, scheduler, runtime):
        def factory():
            bag = ConcurrentBag(runtime, "beta")
            taken = []

            def owner():
                bag.Add(1)
                bag.Add(2)

            def thief():
                value = bag.TryTake()
                if value != "Fail":
                    taken.append(value)

            factory.bag = bag
            factory.taken = taken
            return [owner, thief]

        def check_outcome(outcome):
            remaining = []
            for lst in factory.bag._lists:
                remaining.extend(lst._items)
            everything = sorted(factory.taken + remaining)
            assert everything == sorted(set(everything))
            assert set(everything) <= {1, 2}

        explore(scheduler, factory, check_outcome)


class TestTaskCompletionSingleWinner:
    def test_exactly_one_transition_wins(self, scheduler, runtime):
        def factory():
            tcs = TaskCompletionSource(runtime, "beta")
            winners = []

            def resolver():
                if tcs.TrySetResult(1):
                    winners.append("result")

            def canceller():
                if tcs.TrySetCanceled():
                    winners.append("canceled")

            def failer():
                if tcs.TrySetException("x"):
                    winners.append("exception")

            factory.winners = winners
            return [resolver, canceller, failer]

        def check_outcome(outcome):
            assert len(factory.winners) == 1

        explore(scheduler, factory, check_outcome)
