"""E9 — The headline contrast: O(log n) diameter, Ω(√n) search.

One sweep on merged Móri graphs measuring, side by side, the diameter
(grows logarithmically — the "small world" half) and the search cost of
the best weak-model heuristic (grows polynomially — the
"non-searchable" half).
"""

from __future__ import annotations

from bench_utils import record_result

from repro.core import run_experiment


def test_e9_diameter_vs_search(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "E9",
            sizes=(200, 400, 800, 1600, 3200),
            p=0.5,
            m=2,
            num_graphs=4,
            seed=9,
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    # Diameter: logarithmic model fits well, and even when forced into
    # a power model its exponent is tiny — nowhere near the search
    # floor of 1/2.  (At these sizes log and n^epsilon are numerically
    # indistinguishable, so the robust claim is the exponent gap.)
    assert result.derived["diameter_log_r2"] > 0.8
    assert result.derived["diameter_power_exponent"] < 0.2
    # Search cost: polynomial with exponent >= ~1/2.
    assert result.derived["search_cost_exponent"] > 0.4
    # The gap itself: search grows at least 3x faster in exponent.
    assert (
        result.derived["search_cost_exponent"]
        > 3 * result.derived["diameter_power_exponent"]
    )
