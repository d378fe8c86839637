"""E1 — Theorem 1, weak model: Ω(√n) on merged Móri graphs.

Regenerates the central "figure" of the reproduction: mean request
counts of the full weak-model portfolio (plus the omniscient Lemma-1
baseline) across a size sweep, with the exact theorem floor overlaid,
and per-algorithm fitted scaling exponents.

Shape claims checked:
* every portfolio algorithm's mean cost exceeds the Lemma-1 floor;
* every fitted exponent clears ~0.5 (the paper's bound, with
  Monte-Carlo slack);
* the omniscient baseline is the cheapest (the floor is tight).
"""

from __future__ import annotations

from bench_utils import record_result, runner_kwargs

from repro.core import run_experiment

SIZES = (200, 400, 800, 1600, 3200)


def test_e1_mori_weak(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "E1",
            sizes=SIZES, p=0.5, m=1, num_graphs=5, runs_per_graph=2,
            seed=1, **runner_kwargs(),
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    exponents = {
        key.split("/", 1)[1]: value
        for key, value in result.derived.items()
        if key.startswith("exponent/")
    }
    # The lower bound: no algorithm's scaling exponent sits below ~1/2
    # (0.4 allows finite-size fit noise on a true >= 0.5 exponent).
    for name, exponent in exponents.items():
        assert exponent > 0.4, f"{name}: fitted exponent {exponent}"

    # The omniscient baseline attains the floor's order: cheapest at the
    # largest size.
    largest = max(SIZES)
    means = {
        key.split("/", 1)[1]: value
        for key, value in result.derived.items()
        if key.startswith(f"mean@{largest}/")
    }
    assert means["omniscient-window"] == min(means.values())

    # Every mean clears the concrete Lemma-1 floor (0.8 = MC slack on a
    # bound about expectations).
    floor = result.derived["floor@largest"]
    for name, mean in means.items():
        assert mean >= 0.8 * floor, f"{name}: {mean} < floor {floor}"
