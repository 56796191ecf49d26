"""Mutation-engine determinism and bounds.

The candidate stream must be a pure function of ``(seed, corpus
history)`` — identical across processes, multiprocessing start methods,
and resume — because resume correctness and failure reproduction both
assume the stream replays exactly.  The cross-process tests therefore
recompute the same stream inside ``spawn`` and ``forkserver`` children
(fresh interpreters with their own ``PYTHONHASHSEED``) and in a ``fork``
child (the pool's default: CPython re-seeds ``random`` there, and the
stream must not notice) and require it to match the in-process one bit
for bit.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.events import Invocation
from repro.generate import MUTATION_OPS, MutationEngine, candidate_rng


def _alphabet() -> tuple[Invocation, ...]:
    return (Invocation("A", ()), Invocation("B", (1,)), Invocation("C", (2,)))


def candidate_stream(n: int = 25) -> list[str]:
    """The first *n* candidates of a fixed campaign, rendered to strings.

    Module-level so multiprocessing children can import and run it; any
    hidden process-dependence (``hash()``, set iteration order, ...)
    shows up as a stream mismatch.
    """
    engine = MutationEngine(_alphabet(), max_rows=3, max_cols=3)
    seeds = engine.seed_tests(4, seed=11)
    stream = []
    for index in range(n):
        rng = candidate_rng(11, index)
        parent = seeds[rng.randrange(len(seeds))]
        mutated = engine.mutate(parent, rng, seeds)
        stream.append(
            "dead-end" if mutated is None else f"{mutated[1]}|{mutated[0]}"
        )
    return stream


class TestCandidateRng:
    def test_pinned_values(self):
        # Frozen outputs guard the sha256 derivation itself: a change to
        # the domain string or digest slicing breaks every stored corpus.
        assert candidate_rng(0, 0).random() == pytest.approx(
            0.20708854624581352, abs=0
        )
        assert candidate_rng(5, 3).random() == pytest.approx(
            0.4583788616466874, abs=0
        )

    def test_independent_per_index(self):
        assert candidate_rng(7, 1).random() != candidate_rng(7, 2).random()
        assert candidate_rng(1, 7).random() != candidate_rng(2, 7).random()

    def test_same_arguments_same_stream(self):
        a = candidate_rng(3, 9)
        b = candidate_rng(3, 9)
        assert [a.random() for _ in range(10)] == [
            b.random() for _ in range(10)
        ]


class TestStreamDeterminism:
    def test_repeated_in_process(self):
        assert candidate_stream() == candidate_stream()

    def test_different_seed_diverges(self):
        engine = MutationEngine(_alphabet())
        seeds_a = engine.seed_tests(4, seed=11)
        seeds_b = engine.seed_tests(4, seed=12)
        assert seeds_a != seeds_b

    @pytest.mark.parametrize("start_method", ["spawn", "forkserver", "fork"])
    def test_stream_matches_across_start_methods(self, start_method):
        ctx = multiprocessing.get_context(start_method)
        with ctx.Pool(1) as pool:
            child = pool.apply(candidate_stream)
        assert child == candidate_stream()


class TestSeedTests:
    def test_minimal_shape(self):
        seeds = MutationEngine(_alphabet()).seed_tests(4, seed=0)
        assert 1 <= len(seeds) <= 4
        assert all(test.rows <= 2 for test in seeds)
        assert all(test.n_threads <= 2 for test in seeds)
        assert len({test.columns for test in seeds}) == len(seeds)

    def test_respects_single_column_bound(self):
        seeds = MutationEngine(_alphabet(), max_cols=1).seed_tests(3, seed=0)
        assert all(test.n_threads == 1 for test in seeds)

    def test_deterministic(self):
        engine = MutationEngine(_alphabet())
        assert engine.seed_tests(4, seed=5) == engine.seed_tests(4, seed=5)


class TestMutate:
    def test_child_differs_from_parent_and_stays_in_bounds(self):
        engine = MutationEngine(_alphabet(), max_rows=2, max_cols=2)
        seeds = engine.seed_tests(4, seed=3)
        for index in range(200):
            rng = candidate_rng(3, index)
            parent = seeds[rng.randrange(len(seeds))]
            mutated = engine.mutate(parent, rng, seeds)
            if mutated is None:
                continue
            child, op = mutated
            assert op in MUTATION_OPS
            assert child != parent
            assert child.n_threads <= 2
            assert all(len(col) <= 2 for col in child.columns)
            assert any(child.columns)

    def test_splice_requires_a_pool(self):
        engine = MutationEngine(_alphabet())
        seeds = engine.seed_tests(4, seed=3)
        ops = set()
        for index in range(300):
            rng = candidate_rng(3, index)
            mutated = engine.mutate(seeds[0], rng, ())
            if mutated is not None:
                ops.add(mutated[1])
        assert "splice" not in ops
        assert ops  # the other operators still fire

    def test_single_op_parent_never_shrinks_to_nothing(self):
        engine = MutationEngine(_alphabet(), max_rows=1, max_cols=1)
        parent = engine.seed_tests(1, seed=0)[0]
        for index in range(50):
            mutated = engine.mutate(parent, candidate_rng(0, index), ())
            if mutated is not None:
                assert sum(len(col) for col in mutated[0].columns) >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MutationEngine(())
        with pytest.raises(ValueError):
            MutationEngine(_alphabet(), max_rows=0)
        with pytest.raises(ValueError):
            MutationEngine(_alphabet(), max_cols=0)
