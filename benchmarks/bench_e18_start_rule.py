"""E18 — "Starting from any vertex": the floor is start-independent.

Theorem 1 quantifies over the start vertex.  This ablation measures
the search-cost exponent from the oldest hub-adjacent vertex, from a
uniformly random vertex, and from a young peripheral vertex; all three
must stay at or above ~1/2 — no privileged entry point makes the graph
navigable.
"""

from __future__ import annotations

from bench_utils import record_result

from repro.core import run_experiment

RULES = ("default", "random", "newest-other")


def test_e18_start_rule(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "E18",
            sizes=(200, 400, 800, 1600),
            p=0.5,
            num_graphs=4,
            runs_per_graph=2,
            seed=18,
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    for rule in RULES:
        exponent = result.derived[f"exponent/start={rule}"]
        assert exponent > 0.4, f"start={rule}: exponent {exponent}"
