"""The paper's claims, checked at registered defaults.

A gate on the science rather than on the code: kernel rewrites that
keep every unit test green must not silently move these.  Each check
runs its experiment at the registry's default parameters (tens of
seconds in all), so the module is ``slow``-marked and runs in the
weekly ``make verify-full`` job, not in tier-1.

* E1, E2, E3 — Theorems 1 and 2: every fitted cost exponent is at
  least ½, the paper's Ω(√n).
* E4 — Lemma 3: the exact ``P(E_{a,b})`` is at least the closed-form
  lower bound on every (p, a) row.
* E10 — the exact equivalence identities hold in every window.
* E11 — Lemma 1: every measured search cost sits on or above the
  omniscient floor.
"""

from __future__ import annotations

import pytest

from repro.core.registry import run_experiment

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("experiment_id", ["E1", "E2", "E3"])
def test_fitted_exponents_clear_square_root(experiment_id):
    exponents = {
        key: value
        for key, value in run_experiment(experiment_id).derived.items()
        if key.startswith("exponent/")
    }
    assert exponents
    for key, value in exponents.items():
        assert value >= 0.5, f"{experiment_id} {key} = {value}"


def test_e4_exact_probability_clears_lemma3_bound():
    result = run_experiment("E4")
    assert result.derived["min_margin_exact_minus_bound"] >= 0


def test_e10_exact_identities_hold_in_every_window():
    result = run_experiment("E10")
    assert result.derived["all_windows_hold"] == 1.0


def test_e11_costs_sit_on_or_above_lemma1_floor():
    result = run_experiment("E11")
    assert result.derived["min_ratio"] >= 1
