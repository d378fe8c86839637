"""E20 — The cross-model search-cost grid, at paper scale.

The registry's pure-spec scenario: Móri merged graphs, Cooper–Frieze
graphs, and the configuration-model giant component at matched size
and degree scale, swept by both the weak and the strong portfolio on
one pipeline.  Shape claims, never absolute numbers: the evolving
models' cheapest weak algorithm stays polynomially expensive (the
paper's non-navigability), and every (portfolio, family) pair reports
a finite cost grid.
"""

from __future__ import annotations

from bench_utils import record_result, runner_kwargs

from repro.core import run_experiment

SIZES = (200, 400, 800)
FAMILIES = (
    "mori(m=2,p=0.5)",
    "cooper-frieze(a=0.75)",
    "config(k=2.5)",
)


def test_e20_cross_model(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "E20",
            sizes=SIZES, num_graphs=4, runs_per_graph=2, seed=20,
            **runner_kwargs(),
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    for portfolio in ("weak", "strong"):
        for family in FAMILIES:
            key = f"cheapest_exponent/{portfolio}/{family}"
            assert key in result.derived
            assert result.derived[
                f"mean@largest/{portfolio}/{family}"
            ] > 0
    # Non-navigability shape claim on the evolving models: even the
    # cheapest weak-model algorithm grows with n (exponent bounded
    # away from the navigable regime's ~0 at these grid sizes).
    for family in FAMILIES[:2]:
        assert result.derived[f"cheapest_exponent/weak/{family}"] > 0.0
