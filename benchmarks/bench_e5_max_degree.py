"""E5 — Max-degree growth: Móri t^p vs Barabási–Albert t^{1/2}.

The paper's strong-model bound is non-trivial exactly when the maximum
degree is o(√n) — true for Móri trees with p < 1/2 (Móri 2005), false
for total-degree preferential models like BA (Section 3).  This bench
fits the growth exponents and checks the ordering.
"""

from __future__ import annotations

from bench_utils import record_result

from repro.core import run_experiment

P_VALUES = (0.25, 0.5, 0.75, 1.0)


def test_e5_max_degree(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "E5", n=30000, p_values=P_VALUES, num_trees=5, seed=5
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    fitted = [
        result.derived[f"mori_exponent/p={p:g}"] for p in P_VALUES
    ]
    # Monotone in p, and each within a loose band of the theory value.
    assert fitted == sorted(fitted)
    for p, exponent in zip(P_VALUES, fitted):
        assert abs(exponent - p) < 0.25, f"p={p}: fitted {exponent}"

    # BA max degree grows ~ t^{1/2} — too fast for the strong bound.
    assert abs(result.derived["ba_exponent"] - 0.5) < 0.15
    # The Section-3 point: Mori with p < 1/2 grows strictly slower
    # than BA; with p > 1/2, faster.
    assert result.derived["mori_exponent/p=0.25"] < result.derived[
        "ba_exponent"
    ]
    assert result.derived["mori_exponent/p=1"] > result.derived[
        "ba_exponent"
    ]
