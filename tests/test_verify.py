"""Unit tests for the shared exact-verification kernel."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.verify import jaccard, size_filter

set_strategy = st.sets(st.integers(0, 200), min_size=1, max_size=40)


class TestJaccard:
    @given(set_strategy, set_strategy)
    @settings(max_examples=100, deadline=None)
    def test_matches_python_sets(self, a, b):
        xa = np.array(sorted(a), dtype=np.int64)
        xb = np.array(sorted(b), dtype=np.int64)
        expected = len(a & b) / len(a | b)
        assert jaccard(xa, xb) == pytest.approx(expected)

    def test_identical(self):
        x = np.array([1, 2, 3])
        assert jaccard(x, x) == 1.0

    def test_disjoint(self):
        assert jaccard(np.array([1, 2]), np.array([3, 4])) == 0.0

    def test_known_value(self):
        # The paper's running example: J = 1/2.
        x = np.array([1, 2, 3])  # {IT, University, Copenhagen}
        y = np.array([2, 3, 4])  # {University, Copenhagen, Denmark}
        assert jaccard(x, y) == 0.5

    @given(set_strategy, set_strategy)
    @settings(max_examples=50, deadline=None)
    def test_symmetric(self, a, b):
        xa = np.array(sorted(a), dtype=np.int64)
        xb = np.array(sorted(b), dtype=np.int64)
        assert jaccard(xa, xb) == jaccard(xb, xa)


class TestSizeFilter:
    def test_equal_sizes_always_pass(self):
        s = np.array([5, 10, 100])
        assert size_filter(s, s, 0.9).all()

    def test_too_small_fails(self):
        # |x|=4, |y|=10: max possible J = 4/10 < 0.5.
        assert not size_filter(np.array([4]), np.array([10]), 0.5)[0]

    def test_boundary(self):
        # |x|=5, |y|=10 at lam=0.5: 5 >= 0.5*10 passes (J could be 0.5
        # only if x subset of y; still feasible).
        assert size_filter(np.array([5]), np.array([10]), 0.5)[0]

    def test_ratio_exactly_lambda(self):
        # 55/100 == 0.55 as doubles, but 0.55 * 100 rounds above 55.
        assert size_filter(np.array([55]), np.array([100]), 0.55)[0]

    def test_order_invariant(self):
        a, b = np.array([3, 12]), np.array([12, 3])
        np.testing.assert_array_equal(
            size_filter(a, b, 0.6), size_filter(b, a, 0.6)
        )

