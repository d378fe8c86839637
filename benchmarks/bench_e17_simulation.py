"""E17 — The strong-to-weak simulation argument, executed.

Theorem 1's strong-model case rests on: any strong algorithm can be
simulated in the weak model at a slowdown of at most the maximum
degree.  This bench runs the high-degree strong searcher natively and
through the simulation adapter on the same instances and checks the
inequality instance-by-instance (deterministic inner algorithm, so the
check is exact).
"""

from __future__ import annotations

from bench_utils import record_result, runner_kwargs

from repro.core import run_experiment

SIZES = (200, 400, 800, 1600)


def test_e17_simulation_slowdown(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "E17",
            sizes=SIZES, p=0.25, num_graphs=5, seed=17,
            **runner_kwargs(),
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    # The paper's inequality, with zero slack.
    assert result.derived["worst_ratio"] <= 1.0
    for n in SIZES:
        assert result.derived[f"worst_ratio/n={n}"] <= 1.0
