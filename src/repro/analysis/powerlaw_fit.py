"""Discrete power-law exponent estimation.

Estimates the exponent ``k`` of ``P(d) ∝ d^{-k}`` on the tail
``d in [d_min, d_max]`` (``d_max`` = largest observation) by **exact
truncated-support maximum likelihood**: the log-likelihood

    ``LL(k) = -k Σ ln d_i - n ln Z(k)``,  ``Z(k) = Σ_{d_min}^{d_max} d^{-k}``

is strictly concave in ``k``, so a ternary search pins the MLE to any
precision.  This avoids the well-known small-``d_min`` bias of the
continuous-approximation formula ``1 + n / Σ ln(d_i/(d_min - 1/2))``.

A Kolmogorov–Smirnov distance between the empirical and fitted tail
CDFs is reported as the goodness-of-fit figure; when ``d_min`` is not
given it is chosen to minimise that distance over observed values
(the Clauset–Shalizi–Newman recipe).  Dependency-free.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Optional, Sequence

from repro.errors import AnalysisError, InvalidParameterError

__all__ = ["PowerLawFit", "fit_power_law"]

#: Search interval for the exponent; real-world tails live well inside.
_K_LOW = 1.000001
_K_HIGH = 20.0
_TOLERANCE = 1e-6


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a discrete power-law tail fit.

    Attributes
    ----------
    exponent:
        The truncated-support MLE ``k_hat`` (clipped to [1, 20]; a
        value at the upper end means "no heavy tail").
    d_min:
        Tail cutoff used.
    num_tail:
        Number of observations ``>= d_min``.
    ks_distance:
        KS distance between empirical and fitted tail CDFs (smaller is
        a better fit; genuine power-law samples land well under 0.05,
        concentrated distributions like a lattice's do not).
    """

    exponent: float
    d_min: int
    num_tail: int
    ks_distance: float


def _log_likelihood(
    k: float, log_sum: float, n: int, support: Sequence[float]
) -> float:
    # The same left-to-right sum of the same d ** (-k) terms as a
    # generator over the integer support, without a frame per term:
    # int ** float defers to float.__rpow__, which converts d and calls
    # libm pow; math.pow on the pre-converted doubles is that call.
    # (np.power is not: its vector pow differs in the last bit.)
    z = sum(map(math.pow, support, repeat(-k)))
    return -k * log_sum - n * math.log(z)


def _mle_exponent(counts: Dict[int, int], support: Sequence[float]) -> float:
    """Ternary-search the concave log-likelihood over k."""
    n = sum(counts.values())
    log_sum = sum(c * math.log(d) for d, c in counts.items())
    low, high = _K_LOW, _K_HIGH
    while high - low > _TOLERANCE:
        third = (high - low) / 3.0
        mid1 = low + third
        mid2 = high - third
        if _log_likelihood(mid1, log_sum, n, support) < _log_likelihood(
            mid2, log_sum, n, support
        ):
            low = mid1
        else:
            high = mid2
    return (low + high) / 2.0


def _ks_distance(
    counts: Dict[int, int], support: Sequence[float], exponent: float
) -> float:
    """KS distance against the fitted truncated discrete law."""
    # The same libm pow per term as ``d ** (-exponent)`` (see
    # _log_likelihood), summed in the same support order.
    weights = list(map(math.pow, support, repeat(-exponent)))
    z = sum(weights)
    n = sum(counts.values())
    empirical_cum = 0
    model_cum = 0.0
    worst = 0.0
    for degree, weight in zip(support, weights):
        # A float degree finds its equal int key.
        empirical_cum += counts.get(degree, 0)
        model_cum += weight
        worst = max(worst, abs(empirical_cum / n - model_cum / z))
    return worst


def fit_power_law(
    degrees: Sequence[int],
    d_min: Optional[int] = None,
    min_tail: int = 10,
) -> PowerLawFit:
    """Fit a discrete power law to a degree sample.

    Parameters
    ----------
    degrees:
        Observed degrees (``>= 1`` entries are used; zeros carry no
        tail information and are ignored).
    d_min:
        Tail cutoff; when ``None``, scan observed values and keep the
        cutoff minimising the KS distance (requiring at least
        ``min_tail`` tail points).
    min_tail:
        Minimum tail size for a cutoff to be considered.

    Returns
    -------
    PowerLawFit

    Raises
    ------
    AnalysisError
        If fewer than ``max(min_tail, 2)`` positive observations exist,
        or the tail is a point mass (no exponent identifiable).
    """
    positive = [d for d in degrees if d >= 1]
    if len(positive) < max(min_tail, 2):
        raise AnalysisError(
            f"need at least {max(min_tail, 2)} positive degrees, got "
            f"{len(positive)}"
        )
    if d_min is not None:
        if d_min < 1:
            raise InvalidParameterError(
                f"d_min must be >= 1, got {d_min}"
            )
        return _fit_at(Counter(positive), d_min)

    all_counts = Counter(positive)
    best: Optional[PowerLawFit] = None
    # Tail sizes by one ascending pass: the tail at each cutoff is the
    # previous tail minus the observations equal to the previous cutoff.
    remaining = len(positive)
    for cutoff in sorted(all_counts):
        tail_size = remaining
        remaining -= all_counts[cutoff]
        if tail_size < min_tail:
            break
        try:
            fit = _fit_at(all_counts, cutoff)
        except AnalysisError:
            continue
        if best is None or fit.ks_distance < best.ks_distance:
            best = fit
    if best is None:
        raise AnalysisError(
            "no viable tail cutoff found (data too concentrated)"
        )
    return best


def _fit_at(all_counts: Dict[int, int], d_min: int) -> PowerLawFit:
    # Filtering keeps first-appearance key order, so the likelihood's
    # log-sum adds its terms in the same order as a Counter built from
    # the tail observations alone.
    counts = {d: c for d, c in all_counts.items() if d >= d_min}
    num_tail = sum(counts.values())
    if num_tail < 2:
        raise AnalysisError(
            f"tail above d_min={d_min} has {num_tail} points; cannot fit"
        )
    d_max = max(counts)
    if d_max == d_min:
        raise AnalysisError(
            "degenerate tail (all observations equal d_min); no "
            "power-law exponent is identifiable"
        )
    support = [float(d) for d in range(d_min, d_max + 1)]
    exponent = _mle_exponent(counts, support)
    return PowerLawFit(
        exponent=exponent,
        d_min=d_min,
        num_tail=num_tail,
        ks_distance=_ks_distance(counts, support, exponent),
    )
