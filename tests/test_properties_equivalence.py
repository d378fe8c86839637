"""Property-based tests for the equivalence machinery."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.equivalence.events import event_holds
from repro.equivalence.exact import (
    enumerate_parent_vectors,
    exact_event_probability,
    lemma3_bound,
    lemma3_window_end,
    tree_probability,
)
from repro.equivalence.permutation import (
    apply_permutation_to_parents,
    is_valid_parent_vector,
    window_permutations,
)
from repro.graphs.mori import mori_tree

seeds = st.integers(min_value=0, max_value=2**32 - 1)
p_fractions = st.fractions(
    min_value=Fraction(0), max_value=Fraction(1), max_denominator=20
)


class TestPermutationGroupAction:
    @given(
        n=st.integers(min_value=3, max_value=30),
        seed=seeds,
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_parent_action_is_an_involution(self, n, seed, data):
        """A transposition acts as an involution and moves each
        vertex's child count onto its image."""
        parents = mori_tree(n, 0.5, seed=seed).parents
        v1 = data.draw(st.integers(2, n), label="v1")
        v2 = data.draw(st.integers(2, n), label="v2")
        if v1 == v2:
            return
        sigma = {v1: v2, v2: v1}
        once = apply_permutation_to_parents(parents, sigma)
        assert apply_permutation_to_parents(once, sigma) == parents
        assert once[2:].count(v1) == parents[2:].count(v2)
        assert sorted(once[2:]) == sorted(
            sigma.get(u, u) for u in parents[2:]
        )

    @given(n=st.integers(min_value=4, max_value=7), p=p_fractions)
    @settings(max_examples=15, deadline=None)
    def test_event_trees_closed_under_window_permutations(self, n, p):
        """For every tree in E_{a,b}, its whole window orbit stays in
        E_{a,b} and keeps the same probability (Lemma 2, randomized)."""
        a, b = 2, min(4, n)
        window = range(a + 1, b + 1)
        for parents in enumerate_parent_vectors(n):
            if not event_holds(parents, a, b):
                continue
            base = tree_probability(parents, p)
            for sigma in window_permutations(window):
                image = apply_permutation_to_parents(parents, sigma)
                assert is_valid_parent_vector(image)
                assert event_holds(image, a, b)
                assert tree_probability(image, p) == base


class TestProbabilityProperties:
    @given(
        parents_seed=seeds,
        n=st.integers(min_value=2, max_value=40),
        p=p_fractions,
    )
    @settings(max_examples=50, deadline=None)
    def test_sampled_trees_have_positive_probability(
        self, parents_seed, n, p
    ):
        """Any tree the sampler produces at parameter p has p-probability > 0
        (soundness of the exact formula against the generator)."""
        tree = mori_tree(n, float(p), seed=parents_seed)
        probability = tree_probability(tree.parents, p)
        assert 0 <= probability <= 1
        if p < 1:
            # With p < 1 the uniform component gives every recursive
            # tree positive mass.
            assert probability > 0

    @given(
        a=st.integers(min_value=1, max_value=200),
        p=p_fractions,
    )
    @settings(max_examples=100, deadline=None)
    def test_lemma3_bound_universal(self, a, p):
        b = lemma3_window_end(a)
        exact = exact_event_probability(a, b, p)
        assert float(exact) >= lemma3_bound(float(p)) - 1e-12

    @given(
        a=st.integers(min_value=2, max_value=50),
        width=st.integers(min_value=0, max_value=10),
        p=p_fractions,
    )
    @settings(max_examples=80, deadline=None)
    def test_event_probability_decreasing_in_b(self, a, width, p):
        shorter = exact_event_probability(a, a + width, p)
        longer = exact_event_probability(a, a + width + 1, p)
        assert longer <= shorter

    @given(seed=seeds, n=st.integers(min_value=5, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_event_holds_matches_tree_method(self, seed, n):
        tree = mori_tree(n, 0.5, seed=seed)
        a, b = 3, min(n, 8)
        assert tree.satisfies_event(a, b) == event_holds(
            tree.parents, a, b
        )
