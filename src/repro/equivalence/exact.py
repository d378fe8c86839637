"""Exact probability computations for the Móri tree (Lemmas 2 and 3).

Everything here is computed over :class:`fractions.Fraction` — no
floating point — so the library can verify the paper's probabilistic
lemmas *exactly* rather than statistically:

* :func:`tree_probability` gives the probability that the Móri process
  with parameter ``p`` produces a specific recursive tree (as a parent
  vector);
* :func:`verify_lemma2` exhaustively enumerates all recursive trees of
  a (small) size and checks that permuting the window ``[[a+1, b]]``
  preserves probability conditional on ``E_{a,b}`` — Lemma 2 as stated,
  with equality of Fractions;
* :func:`exact_event_probability` evaluates the closed form

      ``P(E_{a,b}) = Π_{k=a+1..b} (p(k-2) + (1-p)a) / (p(k-2) + (1-p)(k-1))``

  which follows because conditional on the event holding below ``k``,
  *every* one of the ``k - 2`` existing edges points into ``[1, a]``,
  so the preferential mass of ``[1, a]`` is ``p (k - 2)`` and its
  uniform mass ``(1 - p) a``, out of the total
  ``p (k - 2) + (1 - p)(k - 1)``;
* :func:`enumerated_event_probability` recomputes the same quantity by
  brute-force enumeration — the oracle the test suite holds the closed
  form to, with exact equality;
* :func:`ensemble_total_probability` sums :func:`tree_probability`
  over every tree of a size — the oracle that it is a distribution;
* :func:`lemma3_bound` is the paper's ``e^{-(1-p)}`` lower bound for the
  window end ``b = a + ⌊(a-1)^{1/2}⌋``.

Floats given as ``p`` are interpreted decimally (``0.3`` means 3/10),
so user-facing parameters behave as written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian_product
from typing import Dict, Iterator, Sequence, Tuple, Union

from repro.errors import InvalidParameterError
from repro.equivalence.events import event_holds
from repro.equivalence.permutation import (
    apply_permutation_to_parents,
    is_valid_parent_vector,
    window_transpositions,
)

__all__ = [
    "as_fraction",
    "tree_probability",
    "enumerate_parent_vectors",
    "ensemble_total_probability",
    "exact_event_probability",
    "enumerated_event_probability",
    "lemma3_window_end",
    "lemma3_bound",
    "Lemma2Report",
    "verify_lemma2",
]

FractionLike = Union[Fraction, float, int, str]


def as_fraction(p: FractionLike) -> Fraction:
    """Coerce ``p`` to an exact Fraction; floats read decimally."""
    if isinstance(p, Fraction):
        return p
    if isinstance(p, bool):
        raise InvalidParameterError("p must be numeric, got bool")
    if isinstance(p, float):
        return Fraction(repr(p))
    return Fraction(p)


def _validated_p(p: FractionLike) -> Fraction:
    value = as_fraction(p)
    if not 0 <= value <= 1:
        raise InvalidParameterError(f"p must lie in [0, 1], got {value}")
    return value


def tree_probability(
    parents: Sequence[int], p: FractionLike
) -> Fraction:
    """Exact probability of a specific Móri tree realisation.

    ``parents`` is the library-convention parent vector; the tree must
    be recursive and must have ``N_2 = 1`` (the deterministic initial
    edge).  The probability is the product over ``t = 3..n`` of
    ``(p d_t(N_t) + (1-p)) / (p (t-2) + (1-p)(t-1))`` where ``d_t`` is
    the indegree just before time ``t``.
    """
    if not is_valid_parent_vector(parents):
        raise InvalidParameterError(
            f"not a recursive-tree parent vector: {list(parents)}"
        )
    p_frac = _validated_p(p)
    q_frac = 1 - p_frac
    n = len(parents) - 1

    indegree = [0] * (n + 1)
    indegree[1] = 1  # the initial edge 2 -> 1
    probability = Fraction(1)
    for t in range(3, n + 1):
        u = parents[t]
        numerator = p_frac * indegree[u] + q_frac
        denominator = p_frac * (t - 2) + q_frac * (t - 1)
        probability *= Fraction(numerator, denominator)
        indegree[u] += 1
    return probability


def enumerate_parent_vectors(n: int) -> Iterator[Tuple[int, ...]]:
    """All recursive-tree parent vectors on ``n`` vertices.

    Yields tuples in the library convention (entries 0 and 1 are 0,
    ``N_2 = 1``); there are ``(n-1)!`` of them.  Intended for
    exhaustive verification at small ``n`` (``n <= 9`` keeps this under
    50k vectors).
    """
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")
    choice_ranges = [range(1, k) for k in range(3, n + 1)]
    for choices in cartesian_product(*choice_ranges):
        yield (0, 0, 1) + choices


def ensemble_total_probability(n: int, p: FractionLike) -> Fraction:
    """Sum of :func:`tree_probability` over all trees (must equal 1).

    The normalisation oracle for :func:`tree_probability`, the weight
    :func:`verify_lemma2` (E10) compares:
    ``tests/test_equivalence_exact.py`` checks the sum is exactly 1.
    """
    return sum(
        tree_probability(parents, p)
        for parents in enumerate_parent_vectors(n)
    )


def exact_event_probability(
    a: int, b: int, p: FractionLike
) -> Fraction:
    """Closed-form ``P(E_{a,b})`` for the Móri tree, exactly.

    Independent of the final tree size ``n >= b``: the event only
    constrains attachments up to time ``b``.
    """
    if not 1 <= a <= b:
        raise InvalidParameterError(f"need 1 <= a <= b, got a={a}, b={b}")
    p_frac = _validated_p(p)
    q_frac = 1 - p_frac
    probability = Fraction(1)
    for k in range(max(a + 1, 3), b + 1):
        numerator = p_frac * (k - 2) + q_frac * a
        denominator = p_frac * (k - 2) + q_frac * (k - 1)
        probability *= Fraction(numerator, denominator)
    return probability


def enumerated_event_probability(
    n: int, a: int, b: int, p: FractionLike
) -> Fraction:
    """Brute-force ``P(E_{a,b})`` by summing over all size-``n`` trees.

    The oracle for :func:`exact_event_probability`, the closed form E4
    prints: ``tests/test_equivalence_exact.py`` checks the two are equal
    as Fractions.
    """
    if not 1 <= a <= b <= n:
        raise InvalidParameterError(
            f"need 1 <= a <= b <= n, got a={a}, b={b}, n={n}"
        )
    return sum(
        tree_probability(parents, p)
        for parents in enumerate_parent_vectors(n)
        if event_holds(parents, a, b)
    )


def lemma3_window_end(a: int) -> int:
    """Lemma 3's window end ``b = a + ⌊(a-1)^{1/2}⌋``."""
    if a < 1:
        raise InvalidParameterError(f"need a >= 1, got {a}")
    return a + math.isqrt(a - 1)


def lemma3_bound(p: float) -> float:
    """Lemma 3's lower bound ``e^{-(1-p)}`` on ``P(E_{a,b})``."""
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"p must lie in [0, 1], got {p}")
    return math.exp(-(1.0 - p))


@dataclass(frozen=True)
class Lemma2Report:
    """Outcome of an exhaustive Lemma 2 verification.

    Attributes
    ----------
    holds:
        Whether conditional equivalence held exactly.
    num_trees:
        Number of recursive trees enumerated.
    num_event_trees:
        How many of them satisfy ``E_{a,b}``.
    event_probability:
        Their exact total probability (equals the closed form).
    num_transpositions:
        Window transpositions checked (they generate ``S_V``).
    max_discrepancy:
        Largest ``|P(T) - P(sigma(T))|`` found over event trees (0 when
        the lemma holds).
    """

    holds: bool
    num_trees: int
    num_event_trees: int
    event_probability: Fraction
    num_transpositions: int
    max_discrepancy: Fraction


def verify_lemma2(
    n: int, a: int, b: int, p: FractionLike
) -> Lemma2Report:
    """Exhaustively verify Lemma 2 on trees of size ``n``.

    Checks, for every transposition ``sigma`` of the window
    ``V = [[a+1, b]]`` and every tree ``T`` in ``E_{a,b}``:

    * ``sigma(T)`` is again a recursive tree in ``E_{a,b}``;
    * ``P(T) = P(sigma(T))`` exactly.

    Invariance under transpositions implies invariance under all of
    ``S_V``, which is Definition 2's conditional equivalence.
    """
    if not 1 <= a <= b <= n:
        raise InvalidParameterError(
            f"need 1 <= a <= b <= n, got a={a}, b={b}, n={n}"
        )
    probabilities: Dict[Tuple[int, ...], Fraction] = {}
    event_trees = []
    for parents in enumerate_parent_vectors(n):
        prob = tree_probability(parents, p)
        probabilities[parents] = prob
        if event_holds(parents, a, b):
            event_trees.append(parents)

    window = range(a + 1, b + 1)
    holds = True
    max_discrepancy = Fraction(0)
    num_transpositions = 0
    for sigma in window_transpositions(window):
        num_transpositions += 1
        for parents in event_trees:
            image = apply_permutation_to_parents(parents, sigma)
            if not is_valid_parent_vector(image) or not event_holds(
                image, a, b
            ):
                holds = False
                max_discrepancy = max(
                    max_discrepancy, probabilities[parents]
                )
                continue
            gap = abs(probabilities[parents] - probabilities[image])
            if gap != 0:
                holds = False
                max_discrepancy = max(max_discrepancy, gap)

    return Lemma2Report(
        holds=holds,
        num_trees=len(probabilities),
        num_event_trees=len(event_trees),
        event_probability=sum(
            probabilities[parents] for parents in event_trees
        )
        if event_trees
        else Fraction(0),
        num_transpositions=num_transpositions,
        max_discrepancy=max_discrepancy,
    )
