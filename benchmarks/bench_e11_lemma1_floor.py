"""E11 — Lemma 1's floor against measurements; tightness via the
omniscient baseline.

For every size and every algorithm (portfolio + omniscient), the ratio
measured-mean / exact-floor must stay >= ~1; the omniscient baseline's
fitted exponent should sit near 1/2, showing the Ω(√n) bound is the
right order, not an artifact of weak algorithms.
"""

from __future__ import annotations

from bench_utils import record_result

from repro.core import run_experiment


def test_e11_lemma1_floor(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "E11",
            sizes=(200, 400, 800, 1600),
            p=0.5,
            num_graphs=6,
            runs_per_graph=2,
            seed=11,
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    # Lemma 1 predicts ratio >= 1; allow Monte-Carlo slack on means.
    assert result.derived["min_ratio"] > 0.7
    # Tightness: the maximally-informed baseline scales like ~ sqrt(n).
    assert 0.3 < result.derived["omniscient_exponent"] < 0.8
