"""E15 — The Θ(√n) equivalence window in Cooper–Frieze graphs.

The paper's Theorem-2 proof sketch: "the starting point is still the
existence of a set of Θ(√n) equivalent vertices".  This bench exhibits
that set: across a size sweep, the probability that the theorem-style
window is *untouched* (every member born by a single NEW edge below the
window and never referenced again) stays bounded away from zero, and
conditional on the event the per-position parent-degree profile is flat
(exchangeability).
"""

from __future__ import annotations

from bench_utils import record_result

from repro.core import run_experiment

SIZES = (100, 200, 400, 800, 1600)


def test_e15_cf_equivalence(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "E15", sizes=SIZES, alpha=0.75, num_samples=400, seed=15
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    # Bounded away from 0 across the whole sweep (Theorem 2's premise).
    assert result.derived["min_p_untouched"] > 0.3
    # No systematic drift: largest size still comparable to smallest.
    probabilities = [
        result.derived[f"p_untouched/n={n}"] for n in SIZES
    ]
    assert probabilities[-1] > 0.5 * probabilities[0]
    # Exchangeability: conditional parent-degree profile roughly flat
    # relative to its level.
    table = result.tables[1]
    means = [row[2] for row in table.rows]
    level = sum(means) / len(means)
    assert result.derived["profile_spread"] < 0.75 * level
