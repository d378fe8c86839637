"""E14 — Ablation: merge arity m does not rescue searchability.

Theorem 1 covers every m >= 1.  Larger m makes the graph denser (every
vertex has out-degree m) and shrinks the diameter, yet the search
exponent must stay >= ~1/2 for all m — the bound is about label
indistinguishability, not sparsity.
"""

from __future__ import annotations

from bench_utils import record_result

from repro.core import run_experiment

M_VALUES = (1, 2, 4, 8)


def test_e14_ablation_m(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "E14",
            sizes=(200, 400, 800, 1600),
            m_values=M_VALUES,
            p=0.5,
            num_graphs=4,
            seed=14,
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    for m in M_VALUES:
        exponent = result.derived[f"exponent/m={m}"]
        assert exponent > 0.4, f"m={m}: fitted exponent {exponent}"
