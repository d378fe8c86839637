"""Discrete power-law degree sequences.

Substrate for the *pure random graph* models the paper discusses
(Molloy–Reed [MR95]) and the Adamic et al. search experiments (E7),
which assume a degree distribution ``P(delta) ∝ delta^{-k}`` with
exponent ``k`` strictly between 2 and 3.

Sampling is by exact inverse-CDF over the truncated support
``[min_degree, max_degree]`` — no continuous approximation — so the
empirical pmf of a large sample converges to the true discrete zeta
weights and statistical tests in the suite can use tight tolerances.
"""

from __future__ import annotations

import bisect
import itertools
from typing import List, Optional

from repro.errors import InvalidParameterError
from repro.rng import RandomLike, make_rng

__all__ = [
    "power_law_weights",
    "power_law_pmf",
    "power_law_degree_sequence",
]


def power_law_weights(
    exponent: float, min_degree: int, max_degree: int
) -> List[float]:
    """Unnormalised weights ``d^{-exponent}`` for ``d`` in the support.

    Parameters
    ----------
    exponent:
        Power-law exponent ``k`` (must be > 0; the scale-free regime of
        interest is ``k in (2, 3)``).
    min_degree, max_degree:
        Inclusive support bounds, ``1 <= min_degree <= max_degree``.
    """
    if exponent <= 0:
        raise InvalidParameterError(
            f"exponent must be > 0, got {exponent}"
        )
    if min_degree < 1:
        raise InvalidParameterError(
            f"min_degree must be >= 1, got {min_degree}"
        )
    if max_degree < min_degree:
        raise InvalidParameterError(
            f"max_degree ({max_degree}) must be >= min_degree "
            f"({min_degree})"
        )
    return [
        d ** (-exponent) for d in range(min_degree, max_degree + 1)
    ]


def power_law_pmf(
    exponent: float, min_degree: int, max_degree: int
) -> List[float]:
    """Normalised pmf over ``[min_degree, max_degree]``.

    The reference distribution for :func:`power_law_degree_sequence`,
    the sampler behind every configuration-model graph:
    ``tests/test_graphs_models.py`` checks a large sample's frequencies
    against it.
    """
    weights = power_law_weights(exponent, min_degree, max_degree)
    total = sum(weights)
    return [w / total for w in weights]


def power_law_degree_sequence(
    n: int,
    exponent: float,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
    seed: RandomLike = None,
) -> List[int]:
    """Sample ``n`` iid degrees from a truncated discrete power law.

    The returned sequence always has an even sum (required for the
    configuration model): if the raw sample sums to an odd number, one
    unit of degree is added to a uniformly random entry that can absorb
    it — a perturbation of a single half-edge among ``Θ(n)``.

    Parameters
    ----------
    n:
        Sequence length, at least 1.
    exponent:
        Power-law exponent ``k``.
    min_degree:
        Smallest degree (default 1).
    max_degree:
        Largest degree; defaults to ``n - 1`` (the natural structural
        cutoff: a simple graph cannot exceed it).
    seed:
        Seed or generator.

    Returns
    -------
    list of int
        Degrees, even sum, each in ``[min_degree, max_degree + 1]``
        (the ``+ 1`` only via the parity fix and only if room allows —
        otherwise the fixed entry stays within the cutoff and a
        different entry is chosen).
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if max_degree is None:
        max_degree = max(min_degree, n - 1)
    rng = make_rng(seed)

    weights = power_law_weights(exponent, min_degree, max_degree)
    cumulative = list(itertools.accumulate(weights))
    total = cumulative[-1]

    degrees = [
        min_degree
        + bisect.bisect_left(cumulative, rng.random() * total)
        for _ in range(n)
    ]
    if sum(degrees) % 2 == 1:
        _fix_parity(degrees, max_degree, rng)
    return degrees


def _fix_parity(degrees: List[int], max_degree: int, rng) -> None:
    """Add one to a random entry with headroom; fall back to subtracting."""
    candidates = [
        i for i, d in enumerate(degrees) if d < max_degree
    ]
    if candidates:
        degrees[rng.choice(candidates)] += 1
        return
    # Every entry is at the cutoff: subtract instead (still >= 1 because
    # max_degree >= min_degree >= 1 and the sum was odd, so some entry
    # can spare a unit unless max_degree == 1 and n is odd — then bump
    # is impossible and we drop one vertex's degree to 0, documented as
    # a corner case).
    index = rng.randrange(len(degrees))
    degrees[index] -= 1
