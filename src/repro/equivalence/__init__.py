"""Probabilistic vertex equivalence (paper, Section 2).

The paper's lower bounds rest on these pieces, each implemented here
(the Móri ones *exactly verifiable*):

* :mod:`repro.equivalence.permutation` — the action of a vertex
  permutation on Móri parent vectors (Definition 1);
* :mod:`repro.equivalence.events` — the conditioning event
  ``E_{a,b} = {N_k <= a for all a < k <= b}`` and its Monte-Carlo
  estimation (Lemma 2's event);
* :mod:`repro.equivalence.exact` — exact tree probabilities over
  :class:`fractions.Fraction`, exhaustive small-``n`` verification of
  Lemma 2, and the closed-form ``P(E_{a,b})`` of Lemma 3;
* :mod:`repro.equivalence.lower_bound` — Lemma 1's
  ``|V| * P(E) / 2`` floor and the Theorem 1/2 bound calculators;
* :mod:`repro.equivalence.cooper_frieze` — the untouched-window event,
  Theorem 2's analogue of ``E_{a,b}``, and its Monte-Carlo estimators
  (E15).
"""

from repro.equivalence.permutation import (
    apply_permutation_to_parents,
    is_valid_parent_vector,
    window_transpositions,
)
from repro.equivalence.events import (
    equivalence_window,
    estimate_event_probability,
    event_holds,
)
from repro.equivalence.exact import (
    enumerate_parent_vectors,
    enumerated_event_probability,
    exact_event_probability,
    lemma3_bound,
    lemma3_window_end,
    tree_probability,
    verify_lemma2,
)
from repro.equivalence.lower_bound import (
    lemma1_lower_bound,
    strong_model_bound,
    theorem1_weak_bound,
    theorem2_weak_bound,
)

__all__ = [
    "apply_permutation_to_parents",
    "is_valid_parent_vector",
    "window_transpositions",
    "event_holds",
    "estimate_event_probability",
    "equivalence_window",
    "tree_probability",
    "enumerate_parent_vectors",
    "exact_event_probability",
    "enumerated_event_probability",
    "lemma3_bound",
    "lemma3_window_end",
    "verify_lemma2",
    "lemma1_lower_bound",
    "theorem1_weak_bound",
    "theorem2_weak_bound",
    "strong_model_bound",
]
