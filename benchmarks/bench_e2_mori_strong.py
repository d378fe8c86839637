"""E2 — Theorem 1, strong model: Ω(n^{1/2-p-ε}) for p < 1/2.

Regenerates the strong-model table on Móri graphs with p = 0.25:
strong-model algorithms (degree-aware) beat weak-model ones in
absolute terms but stay polynomial, and no fitted exponent sinks below
the theorem's 1/2 - p - ε floor.
"""

from __future__ import annotations

from bench_utils import record_result, runner_kwargs

from repro.core import run_experiment

SIZES = (200, 400, 800, 1600, 3200)
P = 0.25
EPSILON = 0.05


def test_e2_mori_strong(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "E2",
            sizes=SIZES,
            p=P,
            m=1,
            epsilon=EPSILON,
            num_graphs=5,
            runs_per_graph=2,
            seed=2,
            **runner_kwargs(),
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    floor_exponent = result.derived["floor_exponent"]
    assert floor_exponent == 0.5 - P - EPSILON
    for key, value in result.derived.items():
        if key.startswith("exponent/"):
            # Fitted exponents must clear the theorem floor (with
            # fit-noise slack on these finite sizes).
            assert value > floor_exponent - 0.1, f"{key}: {value}"
