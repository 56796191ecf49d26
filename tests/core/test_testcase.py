"""Finite tests: matrices, prefix relation, enumeration and sampling."""

from __future__ import annotations

import pytest

from repro.core.events import Invocation
from repro.core.testcase import FiniteTest, enumerate_tests, sample_tests
from tests.conftest import is_prefix_of

A = Invocation("a")
B = Invocation("b")
C = Invocation("c")


class TestFiniteTest:
    def test_dimensions(self):
        test = FiniteTest.of([[A, B], [C]])
        assert test.n_threads == 2
        assert test.rows == 2
        assert test.dimension == (2, 2)
        assert test.total_operations == 3

    def test_init_final_counted(self):
        test = FiniteTest.of([[A]], init=[B], final=[C])
        assert test.total_operations == 3

    def test_render_matrix_shows_threads(self):
        text = FiniteTest.of([[A, B], [C]]).render_matrix()
        assert "Thread A" in text and "Thread B" in text
        assert "a()" in text and "c()" in text

    def test_render_includes_init_final(self):
        text = FiniteTest.of([[A]], init=[B], final=[C]).render_matrix()
        assert text.startswith("init:")
        assert text.rstrip().endswith("c()")


class TestPrefixRelation:
    def test_reflexive(self):
        test = FiniteTest.of([[A, B], [C]])
        assert is_prefix_of(test, test)

    def test_column_prefix(self):
        small = FiniteTest.of([[A], [C]])
        big = FiniteTest.of([[A, B], [C, A]])
        assert is_prefix_of(small, big)
        assert not is_prefix_of(big, small)

    def test_missing_columns_are_empty_prefixes(self):
        small = FiniteTest.of([[A]])
        big = FiniteTest.of([[A], [C]])
        assert is_prefix_of(small, big)

    def test_mismatched_entries_not_prefix(self):
        assert not is_prefix_of(FiniteTest.of([[B]]), FiniteTest.of([[A, B]]))

    def test_different_init_not_prefix(self):
        small = FiniteTest.of([[A]], init=[B])
        big = FiniteTest.of([[A, B]])
        assert not is_prefix_of(small, big)


class TestEnumeration:
    def test_count_is_alphabet_to_the_cells(self):
        tests = list(enumerate_tests([A, B], rows=2, cols=2))
        assert len(tests) == 2 ** 4
        assert len(set(tests)) == 16

    def test_all_have_right_shape(self):
        for test in enumerate_tests([A, B, C], rows=1, cols=2):
            assert test.dimension == (1, 2)

    def test_zero_rows(self):
        tests = list(enumerate_tests([A], rows=0, cols=2))
        assert len(tests) == 1
        assert tests[0].total_operations == 0

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_tests([A], rows=-1, cols=1))


class TestSampling:
    def test_sample_size_and_uniqueness(self):
        tests = sample_tests([A, B, C], rows=3, cols=3, k=50, seed=1)
        assert len(tests) == 50
        assert len(set(tests)) == 50

    def test_sample_deterministic_by_seed(self):
        first = sample_tests([A, B], rows=2, cols=2, k=5, seed=42)
        second = sample_tests([A, B], rows=2, cols=2, k=5, seed=42)
        assert first == second

    def test_sample_capped_by_space_size(self):
        # Only 2 possible 1x1 tests over {A, B}.
        tests = sample_tests([A, B], rows=1, cols=1, k=100, seed=0)
        assert len(tests) == 2

    def test_sample_carries_init_final(self):
        tests = sample_tests([A], rows=1, cols=1, k=1, seed=0, init=[B], final=[C])
        assert tests[0].init == (B,)
        assert tests[0].final == (C,)

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            sample_tests([], rows=1, cols=1, k=1)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            sample_tests([A], rows=1, cols=1, k=-1)
