"""E3 — Theorem 2: the Ω(√n) floor in the Cooper–Frieze model.

Same portfolio sweep as E1 but on Cooper–Frieze graphs (α = 0.75,
indegree-preferential).  The theorem covers every 0 < α < 1; the shape
claim is identical — all weak-model exponents clear ~1/2.
"""

from __future__ import annotations

from bench_utils import record_result, runner_kwargs

from repro.core import run_experiment

SIZES = (200, 400, 800, 1600)


def test_e3_cooper_frieze(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "E3",
            sizes=SIZES,
            alpha=0.75,
            num_graphs=4,
            runs_per_graph=2,
            seed=3,
            **runner_kwargs(),
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    for key, value in result.derived.items():
        if key.startswith("exponent/"):
            assert value > 0.4, f"{key}: fitted exponent {value}"
