"""Unit tests for the permutation action (Definition 1)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.equivalence.permutation import (
    apply_permutation_to_parents,
    is_valid_parent_vector,
    window_permutations,
    window_transpositions,
)


class TestParentAction:
    def test_identity(self):
        parents = (0, 0, 1, 2, 1)
        assert apply_permutation_to_parents(parents, {}) == parents

    def test_swap_window_vertices(self):
        # Tree: 2->1, 3->1, 4->1.  Swapping 3 and 4 fixes the vector.
        parents = (0, 0, 1, 1, 1)
        image = apply_permutation_to_parents(parents, {3: 4, 4: 3})
        assert image == parents

    def test_swap_moves_parent_pointers(self):
        # Tree: 2->1, 3->2, 4->3.  Swap 3,4: N'_4 = sigma(N_3) = sigma(2)=2,
        # N'_3 = sigma(N_4) = sigma(3) = 4 -> invalid (parent newer).
        parents = (0, 0, 1, 2, 3)
        image = apply_permutation_to_parents(parents, {3: 4, 4: 3})
        assert image == (0, 0, 1, 4, 2)
        assert not is_valid_parent_vector(image)

    def test_children_of_window_relabeled(self):
        # Tree: 2->1, 3->1, 4->1, 5->3.  Swap 3,4: vertex 5's parent
        # becomes 4; vectors stay valid.
        parents = (0, 0, 1, 1, 1, 3)
        image = apply_permutation_to_parents(parents, {3: 4, 4: 3})
        assert image == (0, 0, 1, 1, 1, 4)
        assert is_valid_parent_vector(image)

    def test_root_must_be_fixed(self):
        with pytest.raises(InvalidParameterError):
            apply_permutation_to_parents((0, 0, 1), {1: 2, 2: 1})

    def test_invalid_permutation_rejected(self):
        with pytest.raises(InvalidParameterError):
            apply_permutation_to_parents((0, 0, 1, 1), {2: 3})

    def test_moving_missing_vertex_rejected(self):
        with pytest.raises(InvalidParameterError):
            apply_permutation_to_parents((0, 0, 1), {4: 5, 5: 4})

    def test_transposition_is_an_involution(self, small_tree):
        sigma = {5: 9, 9: 5}
        once = apply_permutation_to_parents(small_tree.parents, sigma)
        assert once != small_tree.parents
        assert apply_permutation_to_parents(once, sigma) == (
            small_tree.parents
        )

    def test_child_counts_follow_the_relabeling(self, small_tree):
        """The indegree of ``v`` becomes the indegree of ``sigma(v)``."""
        sigma = {2: 6, 6: 11, 11: 2}
        parents = small_tree.parents
        image = apply_permutation_to_parents(parents, sigma)
        for v in range(1, small_tree.n + 1):
            assert image[2:].count(sigma.get(v, v)) == (
                parents[2:].count(v)
            )

    def test_action_composes(self, small_tree):
        """Acting by ``sigma`` then ``tau`` is acting by ``tau . sigma``."""
        sigma = {3: 4, 4: 3}
        tau = {4: 7, 7: 4}
        composed = {}
        for k in set(sigma) | set(tau):
            image = tau.get(sigma.get(k, k), sigma.get(k, k))
            if image != k:
                composed[k] = image
        parents = small_tree.parents
        assert apply_permutation_to_parents(
            apply_permutation_to_parents(parents, sigma), tau
        ) == apply_permutation_to_parents(parents, composed)

    def test_event_window_transpositions_keep_a_tree(self):
        """Under ``E_{a,b}`` every window swap yields a recursive tree
        (the step Lemma 2 needs); off the event a swap can fail."""
        # 2->1, 3->1, 4->2, 5->2, 6->3: the window (3, 5] attaches
        # at or below 3, so E_{3,5} holds.
        parents = (0, 0, 1, 1, 2, 2, 3)
        for sigma in window_transpositions([4, 5]):
            assert is_valid_parent_vector(
                apply_permutation_to_parents(parents, sigma)
            )
        # 4->3 breaks E_{2,4}: swapping 3 and 4 makes 3 a child of 4.
        off_event = (0, 0, 1, 1, 3)
        image = apply_permutation_to_parents(off_event, {3: 4, 4: 3})
        assert not is_valid_parent_vector(image)


class TestValidity:
    def test_valid_vectors(self):
        assert is_valid_parent_vector((0, 0, 1))
        assert is_valid_parent_vector((0, 0, 1, 2, 1))

    def test_invalid_vectors(self):
        assert not is_valid_parent_vector(())
        assert not is_valid_parent_vector((0,))
        assert not is_valid_parent_vector((0, 0, 2))  # parent not older
        assert not is_valid_parent_vector((0, 0, 1, 3))  # self/newer
        assert not is_valid_parent_vector((0, 1, 1))  # slot 1 must be 0
        assert not is_valid_parent_vector((1, 0, 1))  # slot 0 must be 0


class TestWindowEnumeration:
    def test_transpositions_count(self):
        transpositions = list(window_transpositions([4, 5, 6]))
        assert len(transpositions) == 3
        assert {4: 5, 5: 4} in transpositions

    def test_permutations_count(self):
        permutations = list(window_permutations([4, 5, 6]))
        assert len(permutations) == 5  # 3! - identity

    def test_single_vertex_window(self):
        assert list(window_transpositions([7])) == []
        assert list(window_permutations([7])) == []
