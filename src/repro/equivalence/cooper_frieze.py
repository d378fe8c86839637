"""Vertex equivalence in the Cooper–Frieze model (Theorem 2's engine).

The paper proves Theorem 2 the same way as Theorem 1 but omits the
details ("the starting point is still the existence of a set of Θ(√n)
equivalent vertices").  This module reconstructs that starting point
empirically:

* :func:`untouched_window_event` — the Cooper–Frieze analogue of
  ``E_{a,b}``: every window vertex was created by a NEW step with a
  **single** out-edge pointing below the window's floor ``a``, has
  received no in-edges, and has never been an OLD-step initiator.
  Conditional on this event the window vertices have isomorphic,
  label-free histories — nothing in the construction distinguishes
  them, which is exactly Definition 2's conditional equivalence.
* :func:`estimate_untouched_probability` — Monte-Carlo estimate of the
  event's probability for the theorem-style ``⌊√n⌋`` window; Theorem 2
  needs it bounded away from 0, which the E15 bench exhibits across a
  size sweep.
* :func:`window_parent_degree_profile` — an exchangeability diagnostic:
  conditional on the event, each window vertex's single "parent" (the
  head of its birth edge) is drawn from the same distribution, so the
  per-position mean parent degree must be flat.

The event reads only a few facts of a realisation: each window
vertex's birth edges, the edge heads, and which vertices initiated OLD
steps.  So the two Monte-Carlo estimators draw their samples through
:func:`repro.graphs.fastgen.cooper_frieze_replay` with
``record_steps=True`` — flat lists, no MultiGraph, no step records —
and evaluate the event and the parent degrees on them in one shared
sample loop.  The replay consumes the shared generator exactly as
``cooper_frieze_graph(record_trace=True)`` does, so every sample (and
every estimate) equals the one :func:`untouched_window_event` computes
on the traced serial build, which stays the reference
(``tests/test_equivalence_cooper_frieze.py`` pins the two against each
other).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import AnalysisError, InvalidParameterError
from repro.graphs.cooper_frieze import CooperFriezeGraph, CooperFriezeParams
from repro.graphs.fastgen import CooperFriezeReplay, cooper_frieze_replay
from repro.rng import RandomLike, make_rng

__all__ = [
    "untouched_window_event",
    "estimate_untouched_probability",
    "CFWindowProfile",
    "window_parent_degree_profile",
]


def _require_trace(cf: CooperFriezeGraph) -> None:
    if cf.trace is None:
        raise InvalidParameterError(
            "Cooper-Frieze equivalence analysis needs a step trace; "
            "build the graph with record_trace=True"
        )


def untouched_window_event(
    cf: CooperFriezeGraph, a: int, b: int
) -> bool:
    """Whether the window ``(a, b]`` is untouched (see module docstring).

    Conditions, for every vertex ``v`` with ``a < v <= b``:

    1. ``v`` was created by a NEW step that added exactly one edge;
    2. that edge's head is ``<= a`` (the window attaches below itself);
    3. ``v`` has indegree 0 (never chosen as a terminal vertex);
    4. ``v`` never initiated an OLD step.

    The scalar oracle of E15's flat replay: :func:`_untouched_parents`
    evaluates the same four conditions on a
    :func:`~repro.graphs.fastgen.cooper_frieze_replay` record, and
    ``tests/test_equivalence_cooper_frieze.py`` checks the two agree
    sample by sample, and that both estimators equal this event's
    hit rate on traced serial builds.
    """
    _require_trace(cf)
    n = cf.n
    if not 1 <= a <= b <= n:
        raise InvalidParameterError(
            f"need 1 <= a <= b <= n={n}, got a={a}, b={b}"
        )
    graph = cf.graph
    window = set(range(a + 1, b + 1))

    # Conditions 3 (cheap graph checks first).
    for v in window:
        if graph.in_degree(v) != 0:
            return False

    # Conditions 1, 2, 4 need the step history.
    births = {}
    for record in cf.trace:
        if record.kind == "old" and record.vertex in window:
            return False  # condition 4
        if record.kind == "new" and record.vertex in window:
            births[record.vertex] = record
    for v in window:
        record = births.get(v)
        if record is None:
            # Window vertex predates the trace: only possible for the
            # initial vertex 1, which can't be in a window with a >= 1.
            return False
        if len(record.edge_ids) != 1:
            return False  # condition 1
        _, head = graph.edge_endpoints(record.edge_ids[0])
        if head > a:
            return False  # condition 2
    return True


def estimate_untouched_probability(
    n: int,
    a: int,
    b: int,
    params: CooperFriezeParams,
    num_samples: int,
    seed: RandomLike = None,
) -> float:
    """Monte-Carlo ``P(untouched window)`` over fresh CF realisations."""
    if num_samples < 1:
        raise InvalidParameterError(
            f"num_samples must be >= 1, got {num_samples}"
        )
    if not 1 <= a <= b <= n:
        raise InvalidParameterError(
            f"need 1 <= a <= b <= n={n}, got a={a}, b={b}"
        )
    hits = 0
    for _, parents in _window_samples(n, a, b, params, num_samples, seed):
        if parents is not None:
            hits += 1
    return hits / num_samples


def _untouched_parents(
    replay: CooperFriezeReplay, a: int, b: int
) -> Optional[List[int]]:
    """The window's birth parents if ``(a, b]`` is untouched, else None.

    The four conditions of :func:`untouched_window_event`, read off a
    step-recording replay: ``b - a`` birth lookups, then two set
    intersections (the edge heads and the OLD-step initiators against
    the window).
    """
    births = replay.births
    heads = replay.heads
    parents = []
    for v in range(a + 1, b + 1):
        first, count = births[v]
        if count != 1:
            return None  # condition 1
        head = heads[first]
        if head > a:
            return None  # condition 2
        parents.append(head)
    window = set(range(a + 1, b + 1))
    if not window.isdisjoint(heads):
        return None  # condition 3
    if not window.isdisjoint(replay.initiators):
        return None  # condition 4
    return parents


def _window_samples(
    n: int,
    a: int,
    b: int,
    params: CooperFriezeParams,
    num_samples: int,
    seed: RandomLike,
) -> Iterator[Tuple[CooperFriezeReplay, Optional[List[int]]]]:
    """Yield each sample's replay and its untouched-window parents.

    All samples draw from one generator, in turn, exactly as
    ``num_samples`` successive ``cooper_frieze_graph(n, params,
    seed=rng, record_trace=True)`` builds would.
    """
    rng = make_rng(seed)
    for _ in range(num_samples):
        replay = cooper_frieze_replay(n, params, rng, record_steps=True)
        yield replay, _untouched_parents(replay, a, b)


@dataclass(frozen=True)
class CFWindowProfile:
    """Conditional per-position statistics of a CF window.

    Attributes
    ----------
    a, b:
        Window bounds (positions are ``a+1 .. b``).
    num_samples, num_event_samples:
        Draws made / draws on which the untouched event held.
    mean_parent_degree:
        Conditional mean final degree of each window vertex's birth
        parent, by position.  Exchangeability predicts a flat profile.
    """

    a: int
    b: int
    num_samples: int
    num_event_samples: int
    mean_parent_degree: Tuple[float, ...]

    @property
    def event_rate(self) -> float:
        """Fraction of samples on which the event held."""
        return self.num_event_samples / self.num_samples

    @property
    def spread(self) -> float:
        """Max pairwise deviation of the conditional means."""
        if not self.mean_parent_degree:
            return 0.0
        return max(self.mean_parent_degree) - min(
            self.mean_parent_degree
        )


def window_parent_degree_profile(
    n: int,
    a: int,
    b: int,
    params: CooperFriezeParams,
    num_samples: int,
    seed: RandomLike = None,
) -> CFWindowProfile:
    """Estimate the conditional mean parent degree per window position."""
    if not 1 <= a <= b <= n:
        raise InvalidParameterError(
            f"need 1 <= a <= b <= n={n}, got a={a}, b={b}"
        )
    if num_samples < 1:
        raise InvalidParameterError(
            f"num_samples must be >= 1, got {num_samples}"
        )
    totals: List[float] = [0.0] * (b - a)
    hits = 0

    for replay, parents in _window_samples(
        n, a, b, params, num_samples, seed
    ):
        if parents is None:
            continue
        hits += 1
        # Final undirected degree, a self-loop counting twice.
        degree = Counter(replay.tails)
        degree.update(replay.heads)
        for position, head in enumerate(parents):
            totals[position] += degree[head]

    if hits == 0:
        raise AnalysisError(
            f"no sample satisfied the untouched event for window "
            f"({a}, {b}] in {num_samples} draws"
        )
    return CFWindowProfile(
        a=a,
        b=b,
        num_samples=num_samples,
        num_event_samples=hits,
        mean_parent_degree=tuple(t / hits for t in totals),
    )
