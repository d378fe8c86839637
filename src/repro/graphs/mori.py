"""The Móri random tree and its merged ``m``-out variant.

This is the model of Theorem 1.  Construction (paper, Section 1):

* at time ``t = 2`` the tree has vertices ``1, 2`` and the single edge
  ``2 -> 1``;
* at each later time ``t``, a new vertex ``t`` is added together with
  one outgoing edge to an older vertex ``u``, chosen with probability
  proportional to ``p * d_t(u) + (1 - p)`` where ``d_t(u)`` is the
  **indegree** of ``u`` at time ``t`` and ``0 < p <= 1``.

The mixture weight is sampled *exactly* (not by mean-field
approximation): at time ``t`` the total preferential mass is
``p * (t - 2)`` (one unit per existing edge) and the total uniform mass
is ``(1 - p) * (t - 1)`` (one unit per existing vertex), so we flip a
coin with probability ``p(t-2) / (p(t-2) + (1-p)(t-1))`` and then either
draw the head of a uniformly random existing edge (which is exactly
indegree-proportional) or a uniformly random existing vertex.  Both
draws are O(1): the heads of the existing edges are exactly the parent
vector's entries ``parents[2:t]``, so the sampler indexes the parent
vector where an :class:`repro.graphs.sampling.EndpointUrn` holding one
token per edge head would sample its tokens.

The **merged m-out Móri graph** ``G^(m)_t`` of size ``n`` (paper,
Section 1) is obtained by building the Móri tree on ``n * m`` vertices
and merging vertices ``m*(i-1)+1 .. m*i`` into the single vertex ``i``;
the result is a connected multigraph (self-loops and parallel edges are
kept) in which every vertex has out-degree ``m``.

Degenerate notes:

* ``p = 1`` (pure indegree preference) makes vertex 2 weight-0 forever,
  so the tree is a star centred at vertex 1 with vertex 2 as a leaf —
  this is what the stated weight formula implies and Theorem 1 covers
  it (finding a specific leaf of a star still costs ~n/2 requests).
* ``p -> 0`` approaches the uniform random recursive tree; the paper
  requires ``p > 0`` but the implementation accepts ``p = 0`` for
  ablation experiments (E13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

from repro.errors import InvalidParameterError
from repro.graphs.base import MultiGraph
from repro.rng import RandomLike, make_rng

__all__ = [
    "MoriTree",
    "MergedMoriGraph",
    "mori_tree",
    "merged_mori_graph",
]


def _validate_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(
            f"attachment parameter p must lie in [0, 1], got {p}"
        )


@dataclass(frozen=True)
class MoriTree:
    """A realised Móri random tree.

    The realisation *is* its parent vector; the :class:`MultiGraph`
    form is derived from it lazily, on first access to :attr:`graph`,
    and cached.  Samplers that only test an event on the parents (E4
    draws thousands of trees per cell) never pay for a graph.

    Attributes
    ----------
    p:
        The preferential/uniform mixture parameter used to build it.
    parents:
        ``parents[k]`` is ``N_k``, the destination of vertex ``k``'s
        outgoing edge, for ``2 <= k <= n``; entries 0 and 1 are 0
        (vertex 1 has no parent).  This is the paper's parent vector —
        the whole probabilistic analysis (event ``E_{a,b}``, Lemma 2)
        is phrased in terms of it.
    """

    p: float
    parents: Tuple[int, ...]

    @cached_property
    def graph(self) -> MultiGraph:
        """The tree as a :class:`MultiGraph`, built once on first use.

        Edge ``t - 2`` is the edge ``t -> parents[t]`` added at time
        ``t`` (edge 0 is ``2 -> 1``).
        """
        parents = self.parents
        graph = MultiGraph(len(parents) - 1)
        for t in range(2, len(parents)):
            graph.add_edge(t, parents[t])
        return graph

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.parents) - 1

    def parent(self, k: int) -> int:
        """``N_k``, the father of vertex ``k`` (``k >= 2``)."""
        if not 2 <= k <= self.n:
            raise InvalidParameterError(
                f"vertex {k} has no parent (valid range: 2..{self.n})"
            )
        return self.parents[k]

    def satisfies_event(self, a: int, b: int) -> bool:
        """Whether the realisation lies in ``E_{a,b} = {N_k <= a, a < k <= b}``.

        The method form of :func:`repro.equivalence.events.event_holds`,
        the predicate E4's estimator and E10's enumeration evaluate on
        parent vectors: ``tests/test_properties_equivalence.py`` checks
        the two agree on sampled trees.
        """
        if not 1 <= a <= b <= self.n:
            raise InvalidParameterError(
                f"need 1 <= a <= b <= n={self.n}, got a={a}, b={b}"
            )
        return all(self.parents[k] <= a for k in range(a + 1, b + 1))


@dataclass(frozen=True)
class MergedMoriGraph:
    """A realised merged ``m``-out Móri graph ``G^(m)_t``.

    Attributes
    ----------
    m:
        Merge arity: each graph vertex absorbs ``m`` consecutive tree
        vertices.
    p:
        Attachment parameter of the underlying tree.
    graph:
        The ``n``-vertex multigraph (self-loops and parallel edges kept).
    tree:
        The underlying ``n * m``-vertex Móri tree, or ``None`` if the
        caller asked not to retain it.
    """

    m: int
    p: float
    graph: MultiGraph
    tree: Optional[MoriTree] = field(repr=False, default=None)

    @property
    def n(self) -> int:
        """Number of merged vertices."""
        return self.graph.num_vertices

    def tree_vertex_to_merged(self, j: int) -> int:
        """The merged vertex absorbing tree vertex ``j``."""
        if j < 1:
            raise InvalidParameterError(f"tree vertex must be >= 1, got {j}")
        return (j - 1) // self.m + 1


def mori_tree(n: int, p: float, seed: RandomLike = None) -> MoriTree:
    """Sample a Móri random tree on ``n`` vertices with parameter ``p``.

    Parameters
    ----------
    n:
        Number of vertices, at least 2.
    p:
        Mixture parameter in ``[0, 1]``; the paper's theorems assume
        ``0 < p <= 1`` but ``p = 0`` (uniform random recursive tree) is
        accepted for ablations.
    seed:
        Seed or generator for reproducibility.

    Returns
    -------
    MoriTree
        The realised tree with its parent vector.
    """
    if n < 2:
        raise InvalidParameterError(f"Mori tree needs n >= 2, got {n}")
    _validate_p(p)
    rng = make_rng(seed)
    # The bounded draws are randrange(k) (urn index) and randint(1, k)
    # (uniform vertex), written out inline as the rejection loop
    # documented in repro.rng: the same getrandbits words in the same
    # order, so every variate and the generator's end state are
    # unchanged, with no Python call frame per draw.
    bits = rng.getrandbits
    coin = rng.random

    parents = [0, 0, 1]
    for t in range(3, n + 1):
        num_edges = t - 2      # edges among the t - 1 existing vertices
        num_vertices = t - 1
        preferential_mass = p * num_edges
        total_mass = preferential_mass + (1.0 - p) * num_vertices
        if coin() * total_mass < preferential_mass:
            # An urn of the edge heads, in insertion order, holds
            # exactly parents[2:t].
            k = num_edges.bit_length()
            r = bits(k)
            while r >= num_edges:
                r = bits(k)
            u = parents[2 + r]
        else:
            k = num_vertices.bit_length()
            r = bits(k)
            while r >= num_vertices:
                r = bits(k)
            u = 1 + r
        parents.append(u)

    return MoriTree(p=p, parents=tuple(parents))


def merged_mori_graph(
    n: int,
    m: int,
    p: float,
    seed: RandomLike = None,
    keep_tree: bool = True,
) -> MergedMoriGraph:
    """Sample the merged ``m``-out Móri graph on ``n`` vertices.

    Builds the Móri tree on ``n * m`` vertices and merges every ``m``
    consecutive tree vertices into one graph vertex, mapping tree vertex
    ``j`` to graph vertex ``⌈j / m⌉``.  Every merged vertex except
    vertex 1 has out-degree exactly ``m`` in the construction
    orientation (vertex 1 absorbs tree vertex 1, which has no out-edge,
    so it has out-degree ``m - 1``).

    Parameters
    ----------
    n:
        Number of merged vertices, at least 2.
    m:
        Merge arity, at least 1.
    p:
        Mixture parameter of the underlying tree.
    seed:
        Seed or generator.
    keep_tree:
        If true (default), retain the underlying tree in the result so
        equivalence experiments can inspect the parent vector.

    Returns
    -------
    MergedMoriGraph
    """
    if n < 2:
        raise InvalidParameterError(f"merged Mori graph needs n >= 2, got {n}")
    if m < 1:
        raise InvalidParameterError(f"merge arity m must be >= 1, got {m}")
    _validate_p(p)

    tree = mori_tree(n * m, p, seed)
    graph = MultiGraph(n)
    for k in range(2, n * m + 1):
        tail = (k - 1) // m + 1
        head = (tree.parents[k] - 1) // m + 1
        graph.add_edge(tail, head)

    return MergedMoriGraph(
        m=m, p=p, graph=graph, tree=tree if keep_tree else None
    )
