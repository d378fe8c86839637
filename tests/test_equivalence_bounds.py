"""Unit tests for the Lemma 1 / theorem bound calculators."""

from __future__ import annotations

import math

import pytest

from repro.errors import InvalidParameterError
from repro.equivalence.lower_bound import (
    lemma1_lower_bound,
    strong_model_bound,
    theorem1_weak_bound,
    theorem2_weak_bound,
)


class TestLemma1:
    def test_formula(self):
        assert lemma1_lower_bound(10, 0.5) == 2.5
        assert lemma1_lower_bound(0, 1.0) == 0.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            lemma1_lower_bound(-1, 0.5)
        with pytest.raises(InvalidParameterError):
            lemma1_lower_bound(5, 1.5)


class TestTheorem1Bound:
    def test_scales_like_sqrt(self):
        # bound(n) / sqrt(n) should stabilise to a positive constant.
        ratios = [
            theorem1_weak_bound(n, 0.5) / math.sqrt(n)
            for n in (100, 400, 1600, 6400)
        ]
        assert all(r > 0.1 for r in ratios)
        assert max(ratios) / min(ratios) < 1.6

    def test_increasing_in_n(self):
        values = [theorem1_weak_bound(n, 0.5) for n in (50, 200, 800)]
        assert values == sorted(values)

    def test_uses_exact_probability(self):
        # With p = 1 the event is certain, so the bound equals |V|/2.
        n = 101
        assert theorem1_weak_bound(n, 1.0) == pytest.approx(
            math.isqrt(n - 2) / 2
        )

    def test_bound_above_lemma3_floor(self):
        for p in (0.1, 0.5, 0.9):
            n = 500
            floor = (
                math.isqrt(n - 2) * math.exp(-(1 - p)) / 2
            )
            assert theorem1_weak_bound(n, p) >= floor - 1e-9


class TestTheorem2Bound:
    def test_scales_like_sqrt(self):
        ratios = [
            theorem2_weak_bound(n) / math.sqrt(n)
            for n in (100, 1600, 25600)
        ]
        assert max(ratios) / min(ratios) < 1.5

    def test_alpha_validation(self):
        with pytest.raises(InvalidParameterError):
            theorem2_weak_bound(100, alpha=0.0)
        with pytest.raises(InvalidParameterError):
            theorem2_weak_bound(100, alpha=1.0)

    def test_target_validation(self):
        with pytest.raises(InvalidParameterError):
            theorem2_weak_bound(2)


class TestStrongBound:
    def test_exponent(self):
        p, eps = 0.25, 0.05
        v1 = strong_model_bound(100, p, eps)
        v2 = strong_model_bound(10000, p, eps)
        # Ratio should be 100^(0.5 - 0.3) = 100^0.2.
        assert v2 / v1 == pytest.approx(100 ** (0.5 - p - eps), rel=1e-9)

    def test_trivial_for_large_p(self):
        # p >= 1/2 makes the exponent non-positive: bound decays.
        assert strong_model_bound(10000, 0.6) < strong_model_bound(
            100, 0.6
        )

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            strong_model_bound(100, 1.5)
        with pytest.raises(InvalidParameterError):
            strong_model_bound(100, 0.3, epsilon=0.0)
        with pytest.raises(InvalidParameterError):
            strong_model_bound(2, 0.3)
