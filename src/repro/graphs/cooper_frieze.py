"""The Cooper–Frieze general web-graph model.

This is the model of Theorem 2.  Following [CF03] as rephrased by the
paper (Section 1, "we rephrase ... to use indegree of vertices instead
of total degree"), the graph evolves from a single vertex with a
self-loop; at each time step:

* with probability ``alpha`` run **procedure NEW**: add a new vertex
  ``v`` together with ``k`` outgoing edges, where ``k`` is drawn from
  the discrete distribution ``q`` (:attr:`new_edge_distribution`); the
  terminal vertex of each edge is an existing vertex chosen *uniformly*
  with probability ``beta`` and *preferentially* otherwise;
* with probability ``1 - alpha`` run **procedure OLD**: pick an existing
  initiator vertex — *uniformly* with probability ``delta``,
  *preferentially* otherwise — and add ``k`` outgoing edges from it,
  ``k`` drawn from the distribution ``p`` (:attr:`old_edge_distribution`);
  each terminal vertex is chosen *uniformly* with probability ``gamma``
  and *preferentially* otherwise.

"Preferentially" means proportional to indegree by default (the
rephrasing the paper uses, which widens the valid parameter range) or
proportional to total degree when ``preferential_by='total'`` (the
original [CF03] formulation) — both are exact urn draws, not mean-field
approximations.

The graph is connected by construction: every NEW vertex attaches to the
existing component, and OLD steps only add edges.  Vertex identities are
assigned in insertion order, so "vertex n" is the newest vertex, exactly
the search target of Theorem 2.

Evolution stops once ``n`` vertices exist *and* the current step has
finished, so the number of time steps is random (about ``n / alpha``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import GraphConstructionError, InvalidParameterError
from repro.graphs.base import MultiGraph
from repro.graphs.sampling import EndpointUrn, discrete_distribution_sampler
from repro.rng import RandomLike, make_rng

__all__ = [
    "CooperFriezeParams",
    "CooperFriezeGraph",
    "StepRecord",
    "cooper_frieze_graph",
]

_PREFERENTIAL_MODES = ("indegree", "total")


@dataclass(frozen=True)
class CooperFriezeParams:
    """Parameter vector ``(alpha, beta, gamma, delta, p, q)`` of the model.

    Attributes
    ----------
    alpha:
        Probability of procedure NEW at each step; must satisfy
        ``0 < alpha < 1`` for Theorem 2 (``alpha = 1`` is accepted for
        ablations and reduces to a pure growth model).
    beta:
        Probability that a NEW-edge terminal vertex is chosen uniformly
        (otherwise preferentially).
    gamma:
        Probability that an OLD-edge terminal vertex is chosen uniformly
        (otherwise preferentially).
    delta:
        Probability that the OLD initiator is chosen uniformly
        (otherwise preferentially).
    new_edge_distribution:
        The paper's distribution ``q``: ``new_edge_distribution[i]`` is
        the probability that a NEW step adds ``i + 1`` edges.
    old_edge_distribution:
        The paper's distribution ``p``: probability vector for the
        number of edges added by an OLD step, same encoding.
    preferential_by:
        ``'indegree'`` (the paper's rephrasing, default) or ``'total'``
        (original [CF03] total-degree preference).
    """

    alpha: float = 0.5
    beta: float = 0.5
    gamma: float = 0.5
    delta: float = 0.5
    new_edge_distribution: Tuple[float, ...] = (1.0,)
    old_edge_distribution: Tuple[float, ...] = (1.0,)
    preferential_by: str = "indegree"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidParameterError(
                f"alpha must lie in (0, 1], got {self.alpha}"
            )
        for name in ("beta", "gamma", "delta"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidParameterError(
                    f"{name} must lie in [0, 1], got {value}"
                )
        if self.preferential_by not in _PREFERENTIAL_MODES:
            raise InvalidParameterError(
                "preferential_by must be one of "
                f"{_PREFERENTIAL_MODES}, got {self.preferential_by!r}"
            )
        # Validate the two pmfs eagerly so bad parameter vectors fail at
        # construction time, not in the middle of a long run.
        discrete_distribution_sampler(self.new_edge_distribution)
        discrete_distribution_sampler(self.old_edge_distribution)

    @property
    def mean_new_edges(self) -> float:
        """Expected number of edges added by a NEW step."""
        return sum(
            (i + 1) * prob
            for i, prob in enumerate(self.new_edge_distribution)
        )

    @property
    def mean_old_edges(self) -> float:
        """Expected number of edges added by an OLD step."""
        return sum(
            (i + 1) * prob
            for i, prob in enumerate(self.old_edge_distribution)
        )


@dataclass(frozen=True)
class StepRecord:
    """One evolution step, for history-dependent analyses.

    Attributes
    ----------
    kind:
        ``'new'`` or ``'old'``.
    vertex:
        The NEW vertex created, or the OLD initiator.
    edge_ids:
        Edge ids added by the step, in insertion order.
    """

    kind: str
    vertex: int
    edge_ids: Tuple[int, ...]


@dataclass(frozen=True)
class CooperFriezeGraph:
    """A realised Cooper–Frieze graph.

    Attributes
    ----------
    graph:
        The evolved multigraph; vertex ``n`` is the newest vertex.
    params:
        The parameter vector used.
    num_steps:
        Number of evolution steps taken (NEW + OLD).
    num_new_steps:
        Number of NEW steps (equals ``n - 1`` plus the initial vertex).
    trace:
        Per-step history (``None`` unless the graph was built with
        ``record_trace=True``).  Read by
        :func:`~repro.equivalence.cooper_frieze.untouched_window_event`,
        the reference form of the Theorem-2 equivalence analysis, which
        must distinguish birth edges from later OLD edges on the same
        vertex (its Monte-Carlo estimators read the same facts off
        :func:`repro.graphs.fastgen.cooper_frieze_replay`).
    checkpoint_edge_counts:
        ``checkpoint n -> num_edges`` at the end of the step that
        created vertex ``n`` (``None`` unless built with
        ``checkpoints=...``).  Because an independent run targeting
        ``n`` exits its evolution loop at exactly that step boundary,
        ``graph.prefix(n, checkpoint_edge_counts[n])`` is bit-identical
        to ``cooper_frieze_graph(n, params, seed).graph`` — the
        growth-trajectory checkpoint contract.
    """

    graph: MultiGraph
    params: CooperFriezeParams
    num_steps: int
    num_new_steps: int
    trace: Optional[Tuple[StepRecord, ...]] = None
    checkpoint_edge_counts: Optional[Dict[int, int]] = None

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.graph.num_vertices


class _PreferentialChooser:
    """Terminal/initiator vertex chooser shared by NEW and OLD steps."""

    def __init__(self, mode: str):
        self._mode = mode
        self._urn = EndpointUrn()

    def record_edge(self, tail: int, head: int) -> None:
        """Update preference weights after an edge insertion."""
        if self._mode == "indegree":
            self._urn.add(head)
        else:
            self._urn.add(tail)
            self._urn.add(head)

    def choose(
        self,
        rng: random.Random,
        num_vertices: int,
        uniform_probability: float,
    ) -> int:
        """Pick a vertex: uniform w.p. ``uniform_probability``, else by weight."""
        if rng.random() < uniform_probability or len(self._urn) == 0:
            return rng.randint(1, num_vertices)
        return self._urn.sample(rng)


def cooper_frieze_graph(
    n: int,
    params: Optional[CooperFriezeParams] = None,
    seed: RandomLike = None,
    max_steps: Optional[int] = None,
    record_trace: bool = False,
    checkpoints: Optional[Sequence[int]] = None,
) -> CooperFriezeGraph:
    """Evolve a Cooper–Frieze graph until it has ``n`` vertices.

    Parameters
    ----------
    n:
        Target number of vertices, at least 2.
    params:
        Model parameters (defaults to :class:`CooperFriezeParams()`).
    seed:
        Seed or generator.
    max_steps:
        Safety cap on evolution steps; defaults to a generous multiple
        of the expected ``n / alpha``.  Exceeding it raises
        :class:`GraphConstructionError` (it indicates a pathological
        parameter vector rather than bad luck).
    record_trace:
        Keep a per-step :class:`StepRecord` history on the result.
    checkpoints:
        Vertex counts (each in ``2 .. n``) at which to record the edge
        count, sampled at the end of the step that created the
        checkpoint vertex — see
        :attr:`CooperFriezeGraph.checkpoint_edge_counts`.  The number
        of evolution steps is random, so unlike the fixed-arity models
        these marks cannot be computed after the fact; they must be
        observed while the single shared realisation evolves.

    Returns
    -------
    CooperFriezeGraph
    """
    if n < 2:
        raise InvalidParameterError(
            f"Cooper-Frieze graph needs n >= 2, got {n}"
        )
    if params is None:
        params = CooperFriezeParams()
    pending = sorted(set(checkpoints)) if checkpoints else []
    if pending and (pending[0] < 2 or pending[-1] > n):
        raise InvalidParameterError(
            f"checkpoints must lie in [2, {n}], got {pending}"
        )
    rng = make_rng(seed)

    if max_steps is None:
        # Mean steps to reach n vertices is (n - 1) / alpha; 20x + slack
        # makes a spurious trip astronomically unlikely.
        max_steps = int(20 * (n - 1) / params.alpha) + 100

    new_count_sampler = discrete_distribution_sampler(
        params.new_edge_distribution
    )
    old_count_sampler = discrete_distribution_sampler(
        params.old_edge_distribution
    )

    graph = MultiGraph(1)
    graph.add_edge(1, 1)  # initial vertex with a self-loop
    chooser = _PreferentialChooser(params.preferential_by)
    chooser.record_edge(1, 1)

    num_steps = 0
    num_new_steps = 0
    trace = [] if record_trace else None
    marks: Dict[int, int] = {}
    while graph.num_vertices < n:
        num_steps += 1
        if num_steps > max_steps:
            raise GraphConstructionError(
                f"evolution exceeded {max_steps} steps before reaching "
                f"{n} vertices (alpha={params.alpha})"
            )
        if rng.random() < params.alpha:
            num_new_steps += 1
            record = _procedure_new(
                graph, chooser, rng, params, new_count_sampler
            )
        else:
            record = _procedure_old(
                graph, chooser, rng, params, old_count_sampler
            )
        if trace is not None:
            trace.append(record)
        # NEW steps add exactly one vertex, so each checkpoint is hit
        # exactly; recording at the step boundary matches where an
        # independent run targeting the checkpoint would have stopped.
        while pending and graph.num_vertices >= pending[0]:
            marks[pending.pop(0)] = graph.num_edges

    return CooperFriezeGraph(
        graph=graph,
        params=params,
        num_steps=num_steps,
        num_new_steps=num_new_steps,
        trace=tuple(trace) if trace is not None else None,
        checkpoint_edge_counts=marks if checkpoints else None,
    )


def _procedure_new(
    graph: MultiGraph,
    chooser: _PreferentialChooser,
    rng: random.Random,
    params: CooperFriezeParams,
    count_sampler,
) -> StepRecord:
    """Add a new vertex with q-distributed out-edges to existing vertices."""
    existing = graph.num_vertices
    v = graph.add_vertex()
    num_edges = count_sampler.sample(rng) + 1
    edge_ids = []
    for _ in range(num_edges):
        head = chooser.choose(rng, existing, params.beta)
        edge_ids.append(graph.add_edge(v, head))
        chooser.record_edge(v, head)
    return StepRecord(kind="new", vertex=v, edge_ids=tuple(edge_ids))


def _procedure_old(
    graph: MultiGraph,
    chooser: _PreferentialChooser,
    rng: random.Random,
    params: CooperFriezeParams,
    count_sampler,
) -> StepRecord:
    """Add p-distributed out-edges from an existing initiator vertex."""
    existing = graph.num_vertices
    initiator = chooser.choose(rng, existing, params.delta)
    num_edges = count_sampler.sample(rng) + 1
    edge_ids = []
    for _ in range(num_edges):
        head = chooser.choose(rng, existing, params.gamma)
        edge_ids.append(graph.add_edge(initiator, head))
        chooser.record_edge(initiator, head)
    return StepRecord(
        kind="old", vertex=initiator, edge_ids=tuple(edge_ids)
    )
