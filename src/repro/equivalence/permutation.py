"""Permutation action on Móri parent vectors (Definition 1).

A permutation ``sigma`` of ``[[1, n]]`` acts on a labeled graph by
relabeling every edge endpoint.  For a Móri tree represented by its
parent vector ``N`` (``N[k]`` = father of ``k``), the action is

    ``N'[sigma(k)] = sigma(N[k])``  for every ``k >= 2``,

i.e. the out-edge of ``k`` becomes the out-edge of ``sigma(k)`` and
points to the relabeled father.  The result is again a *recursive* tree
(every vertex's father is older) only for permutations compatible with
the tree — which is exactly what the event ``E_{a,b}`` guarantees for
permutations of the window ``[[a+1, b]]`` (Lemma 2):
:func:`is_valid_parent_vector` makes the condition checkable.

Permutations are passed as dicts mapping moved vertices only; identity
on everything absent.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

from repro.errors import InvalidParameterError

__all__ = [
    "apply_permutation_to_parents",
    "is_valid_parent_vector",
    "window_transpositions",
    "window_permutations",
]


def _validate_permutation(sigma: Dict[int, int]) -> None:
    sources = set(sigma.keys())
    images = set(sigma.values())
    if sources != images:
        raise InvalidParameterError(
            f"not a permutation: moves {sorted(sources)} onto "
            f"{sorted(images)}"
        )


def apply_permutation_to_parents(
    parents: Sequence[int], sigma: Dict[int, int]
) -> Tuple[int, ...]:
    """The permuted parent vector ``N'[sigma(k)] = sigma(N[k])``.

    ``parents`` uses the library convention: index 0 and 1 are 0,
    ``parents[k]`` is the father of ``k`` for ``2 <= k <= n``.  The
    result may fail to be a recursive tree; callers check with
    :func:`is_valid_parent_vector`.
    """
    _validate_permutation(sigma)
    n = len(parents) - 1
    if sigma.get(1, 1) != 1:
        raise InvalidParameterError(
            "permutations must fix vertex 1 (the root has no parent slot)"
        )
    for moved in sigma:
        if not 1 <= moved <= n:
            raise InvalidParameterError(
                f"permutation moves vertex {moved}, outside [1, {n}]"
            )
    result = list(parents)
    for k in range(2, n + 1):
        image = sigma.get(k, k)
        result[image] = sigma.get(parents[k], parents[k])
    return tuple(result)


def is_valid_parent_vector(parents: Sequence[int]) -> bool:
    """Whether ``parents`` encodes a recursive tree (``1 <= N[k] < k``)."""
    n = len(parents) - 1
    if n < 1:
        return False
    if parents[0] != 0 or (n >= 1 and parents[1] != 0):
        return False
    return all(1 <= parents[k] < k for k in range(2, n + 1))


def window_transpositions(
    window: Sequence[int],
) -> Iterator[Dict[int, int]]:
    """All transpositions of a window of vertices.

    Transpositions generate the symmetric group, so invariance of a
    probability distribution under all of them implies invariance under
    every permutation of the window — this is what the exhaustive
    Lemma 2 verification iterates over.
    """
    ordered = sorted(set(window))
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            yield {a: b, b: a}


def window_permutations(
    window: Sequence[int],
) -> Iterator[Dict[int, int]]:
    """All non-identity permutations of a (small) window of vertices.

    The full window group, which
    :func:`repro.equivalence.exact.verify_lemma2` (E10) covers only
    through its generators, :func:`window_transpositions`: the oracle
    ``tests/test_properties_equivalence.py`` checks event-tree
    invariance under, permutation by permutation.
    """
    import itertools

    ordered = sorted(set(window))
    for image in itertools.permutations(ordered):
        sigma = {
            src: dst for src, dst in zip(ordered, image) if src != dst
        }
        if sigma:
            yield sigma
