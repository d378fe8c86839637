"""E6 — Degree distributions: scale-free models vs the Kleinberg lattice.

The paper's premise: real networks have power-law degrees with exponent
k in [2, 3], Kleinberg's model does not ("close to a Poisson
distribution").  This bench fits discrete power laws to all five models
and checks that the evolving/configuration models land in (or near) the
scale-free band while the lattice is rejected.
"""

from __future__ import annotations

from bench_utils import record_result, runner_kwargs

from repro.core import run_experiment


def test_e6_degree_distribution(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("E6", n=20000, seed=6, **runner_kwargs()),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    # The configuration model was *sampled* at k=2.5: the fit must
    # recover it closely (this also validates the fitter end-to-end).
    assert abs(result.derived["exponent/config(k=2.5)"] - 2.5) < 0.25

    # Evolving models: heavy tails with exponents in the scale-free
    # ballpark (BA theory: 3; Mori/CF depend on parameters).
    for name in ("mori(p=0.5, m=2)", "cooper-frieze(a=0.75)", "ba(m=2)"):
        exponent = result.derived[f"exponent/{name}"]
        assert 1.8 < exponent < 4.0, f"{name}: {exponent}"

    # The lattice is NOT scale-free: its concentrated degrees force the
    # fitted exponent to an extreme value and/or a poor KS fit.
    kleinberg_key = next(
        k
        for k in result.derived
        if k.startswith("exponent/kleinberg")
    )
    ks_key = kleinberg_key.replace("exponent/", "ks/")
    scale_free_like = (
        1.8 < result.derived[kleinberg_key] < 4.0
        and result.derived[ks_key] < 0.05
    )
    assert not scale_free_like
