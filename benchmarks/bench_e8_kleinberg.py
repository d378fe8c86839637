"""E8 — Kleinberg navigability crossover (the contrast positive result).

Greedy routing cost on the small-world torus as a function of the
clustering exponent r: poly-logarithmic at the critical r = 2,
polynomial away from it.  The fitted cost-vs-n exponent should dip at
r = 2 — the crossover Kleinberg proved and the searchability the
paper's scale-free graphs provably lack.
"""

from __future__ import annotations

from bench_utils import record_result

from repro.core import run_experiment

R_VALUES = (0.0, 1.0, 2.0, 3.0, 4.0)


def test_e8_kleinberg(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "E8",
            sides=(10, 16, 24, 36, 50, 70, 100),
            r_values=R_VALUES,
            pairs_per_grid=60,
            seed=8,
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    exponents = {
        r: result.derived[f"exponent/r={r:g}"] for r in R_VALUES
    }
    # The dip: r=2 is the unique navigable exponent.
    assert exponents[2.0] == min(exponents.values())
    # Poly-log at r=2 shows up as a small fitted power.
    assert exponents[2.0] < 0.35
    # Far from the critical value the cost is genuinely polynomial
    # (~ n^{1/2} at r=0 and r >= 3 in 2D).
    assert exponents[0.0] > 0.3
    assert exponents[4.0] > 0.3
