"""Graph families: uniform handles over the paper's models.

A *family* knows how to build an instance of a given size from a seed
and where the theorem-faithful search target sits:

* Theorem 1/2 search for **vertex n, the newest vertex**, inside a graph
  of size ``t >= n + √n`` so the equivalence window ``[[n, b]]`` exists.
  :meth:`GraphFamily.theorem_target` therefore returns
  ``n - ⌊√n⌋ - 1``-ish — precisely, the largest target whose window
  (per Lemma 3) still fits inside the built graph.
* The configuration model is not connected; its family restricts to the
  giant component (relabelled, order-preserving) so searches terminate,
  and exposes the pre-restriction size for bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.graphs.base import MultiGraph
from repro.graphs.frozen import FrozenGraph, freeze
from repro.graphs.components import induced_subgraph, largest_component
from repro.graphs.configuration import power_law_configuration_graph
from repro.graphs.barabasi_albert import barabasi_albert_graph
from repro.graphs.cooper_frieze import CooperFriezeParams, cooper_frieze_graph
from repro.graphs.mori import merged_mori_graph
from repro.graphs.sampling import discrete_distribution_sampler
from repro.rng import RandomLike

__all__ = [
    "GraphFamily",
    "MoriFamily",
    "CooperFriezeFamily",
    "BarabasiAlbertFamily",
    "ConfigurationFamily",
    "theorem_target_for_size",
]


def theorem_target_for_size(size: int) -> int:
    """Largest target whose Lemma-3 window fits in a size-``size`` graph.

    The window for target ``n`` ends at ``b = (n-1) + ⌊√(n-2)⌋``; we
    return the largest ``n >= 3`` with ``b <= size``.
    """
    if size < 4:
        raise InvalidParameterError(
            f"graph size must be >= 4 for a theorem target, got {size}"
        )
    target = size
    while target >= 3:
        b = (target - 1) + math.isqrt(target - 2)
        if b <= size:
            return target
        target -= 1
    raise InvalidParameterError(
        f"no valid theorem target for size {size}"
    )


def _validated_checkpoints(
    sizes: Sequence[int], minimum: int
) -> Tuple[int, ...]:
    """Sorted, de-duplicated checkpoint sizes for a trajectory build."""
    ordered = tuple(sorted(set(sizes)))
    if not ordered:
        raise InvalidParameterError(
            "a trajectory needs at least one checkpoint size"
        )
    if ordered[0] < minimum:
        raise InvalidParameterError(
            f"trajectory checkpoints must be >= {minimum}, got "
            f"{ordered[0]}"
        )
    return ordered


class GraphFamily:
    """Interface: build instances and locate the theorem target."""

    #: Stable identifier used in tables.
    name: str = "abstract"

    #: Whether one realisation's prefix at ``n`` is bit-identical to an
    #: independent same-seed build of size ``n``.  True for the evolving
    #: models (they consume their RNG stream in vertex-arrival order);
    #: false for the configuration model, whose degree sequence is drawn
    #: for the full size up front and whose giant-component relabelling
    #: is a global operation.
    prefix_stable: bool = False

    #: Whether ``build(n)`` returns a graph with exactly ``n`` vertices.
    #: False for the configuration family, which restricts to the giant
    #: component — its realisations cannot be stored in a corpus keyed
    #: by ``(spec, n, seed)`` with an exact-size invariant.
    exact_size: bool = True

    def build(self, size: int, seed: RandomLike = None) -> MultiGraph:
        """Build one instance with ``size`` vertices."""
        raise NotImplementedError

    def build_frozen(
        self,
        size: int,
        seed: RandomLike = None,
        generator: str = "serial",
    ) -> FrozenGraph:
        """Frozen CSR snapshot of one instance.

        ``generator="vectorized"`` routes families that have one
        through the batched kernels in :mod:`repro.graphs.fastgen`
        (bit-identical to the serial builder —
        ``tests/test_fastgen_equivalence.py`` pins it).  Families
        without a kernel build serially under either generator, the
        same silent fallback the ensemble engine applies to non-walk
        algorithms.
        """
        return freeze(self.build(size, seed=seed))

    def build_trajectory(
        self,
        sizes: Sequence[int],
        seed: RandomLike = None,
        generator: str = "serial",
    ) -> Tuple[MultiGraph, Dict[int, int]]:
        """One realisation at ``max(sizes)`` plus per-checkpoint marks.

        Returns ``(graph, marks)`` where ``marks[n]`` is the number of
        edges the realisation had at the moment an independent
        same-seed run targeting ``n`` would have stopped, so
        ``graph.prefix(n, marks[n])`` (or the frozen equivalent) is
        bit-identical to ``build(n, seed)``.  Under
        ``generator="vectorized"`` the realisation comes back already
        frozen (:func:`repro.core.trials.trajectory_snapshots` accepts
        both forms).  Gated on :attr:`prefix_stable`: families that
        declare it must also override this method with their
        checkpoint-mark rule.
        """
        if not self.prefix_stable:
            raise InvalidParameterError(
                f"family {self.name!r} does not evolve by vertex "
                "arrival; growth-trajectory checkpoints are undefined "
                "for it (use mode='independent')"
            )
        raise NotImplementedError(
            f"{type(self).__name__} declares prefix_stable=True but "
            "does not implement build_trajectory"
        )

    def theorem_target(self, graph: MultiGraph) -> int:
        """The search target Theorems 1/2 are about, for this instance."""
        return theorem_target_for_size(graph.num_vertices)

    def default_start(self, graph: MultiGraph) -> int:
        """Default start vertex: the oldest (vertex 1, hub-adjacent).

        Starting at the oldest vertex is the *favourable* case for the
        searcher (it begins at the dense core), so lower-bound evidence
        collected from it is conservative.
        """
        return 1

    def churn_join_edges(self, sampler, rng) -> List[int]:
        """Attachment targets for one vertex joining under churn.

        ``sampler`` is the live-population sampler of a
        :class:`repro.graphs.churn.ChurnProcess` (``uniform_vertex``,
        ``degree_vertex``, ``indegree_vertex`` draws plus the
        ``num_live_vertices``/``num_edges`` masses); each family
        re-expresses its own growth-step attachment rule in those
        primitives so churn joins follow the model that built the
        graph.  The default is a single total-degree-preferential
        edge.
        """
        return [sampler.degree_vertex(rng)]


@dataclass
class MoriFamily(GraphFamily):
    """Merged ``m``-out Móri graphs with parameter ``p`` (Theorem 1)."""

    p: float = 0.5
    m: int = 1

    prefix_stable = True

    def __post_init__(self) -> None:
        self.name = f"mori(m={self.m},p={self.p:g})"

    def build(self, size: int, seed: RandomLike = None) -> MultiGraph:
        return merged_mori_graph(
            size, self.m, self.p, seed=seed, keep_tree=False
        ).graph

    def build_frozen(
        self,
        size: int,
        seed: RandomLike = None,
        generator: str = "serial",
    ) -> FrozenGraph:
        if generator == "vectorized":
            from repro.graphs.fastgen import fast_merged_mori_frozen

            return fast_merged_mori_frozen(
                size, self.m, self.p, seed=seed
            )
        return super().build_frozen(size, seed=seed)

    def build_trajectory(
        self,
        sizes: Sequence[int],
        seed: RandomLike = None,
        generator: str = "serial",
    ) -> Tuple[MultiGraph, Dict[int, int]]:
        ordered = _validated_checkpoints(sizes, minimum=2)
        if generator == "vectorized":
            graph = self.build_frozen(
                ordered[-1], seed=seed, generator=generator
            )
        else:
            graph = self.build(ordered[-1], seed=seed)
        # The merged graph on n vertices carries one edge per tree
        # vertex 2 .. n*m, and its edges arrive in tree-vertex order,
        # so the mark at checkpoint n is exactly n*m - 1.
        return graph, {n: n * self.m - 1 for n in ordered}

    def churn_join_edges(self, sampler, rng) -> List[int]:
        """``m`` endpoints with Móri weight ``p·d_in(u) + (1 - p)``.

        The exact-mass mixture of :func:`repro.graphs.mori.mori_tree`:
        total preferential mass is ``p`` per surviving edge (one
        indegree unit each), total uniform mass ``1 - p`` per live
        vertex.
        """
        targets = []
        for _ in range(self.m):
            preferential_mass = self.p * sampler.num_edges
            total_mass = (
                preferential_mass
                + (1.0 - self.p) * sampler.num_live_vertices
            )
            if (
                total_mass > 0.0
                and rng.random() * total_mass < preferential_mass
            ):
                targets.append(sampler.indegree_vertex(rng))
            else:
                targets.append(sampler.uniform_vertex(rng))
        return targets


@dataclass
class CooperFriezeFamily(GraphFamily):
    """Cooper–Frieze graphs with a full parameter vector (Theorem 2)."""

    params: CooperFriezeParams = field(
        default_factory=CooperFriezeParams
    )

    prefix_stable = True

    def __post_init__(self) -> None:
        self.name = f"cooper-frieze(a={self.params.alpha:g})"

    def build(self, size: int, seed: RandomLike = None) -> MultiGraph:
        return cooper_frieze_graph(size, self.params, seed=seed).graph

    def build_frozen(
        self,
        size: int,
        seed: RandomLike = None,
        generator: str = "serial",
    ) -> FrozenGraph:
        if generator == "vectorized":
            from repro.graphs.fastgen import fast_cooper_frieze_frozen

            graph, _ = fast_cooper_frieze_frozen(
                size, self.params, seed=seed
            )
            return graph
        return super().build_frozen(size, seed=seed)

    def build_trajectory(
        self,
        sizes: Sequence[int],
        seed: RandomLike = None,
        generator: str = "serial",
    ) -> Tuple[MultiGraph, Dict[int, int]]:
        ordered = _validated_checkpoints(sizes, minimum=2)
        # The number of evolution steps is random (OLD steps add edges
        # without adding vertices), so the marks are observed during
        # the one shared run rather than computed from the arity.
        if generator == "vectorized":
            from repro.graphs.fastgen import fast_cooper_frieze_frozen

            graph, marks = fast_cooper_frieze_frozen(
                ordered[-1], self.params, seed=seed,
                checkpoints=ordered,
            )
            return graph, dict(marks)
        realised = cooper_frieze_graph(
            ordered[-1], self.params, seed=seed, checkpoints=ordered
        )
        return realised.graph, dict(realised.checkpoint_edge_counts)

    def churn_join_edges(self, sampler, rng) -> List[int]:
        """Procedure NEW applied to the live graph.

        Edge count drawn from the model's ``q`` distribution; each
        terminal uniform with probability ``beta``, else preferential
        by the configured degree notion — the rule of
        ``_procedure_new`` in :mod:`repro.graphs.cooper_frieze`.
        """
        count_sampler = discrete_distribution_sampler(
            self.params.new_edge_distribution
        )
        count = count_sampler.sample(rng) + 1
        targets = []
        for _ in range(count):
            if rng.random() < self.params.beta:
                targets.append(sampler.uniform_vertex(rng))
            elif self.params.preferential_by == "indegree":
                targets.append(sampler.indegree_vertex(rng))
            else:
                targets.append(sampler.degree_vertex(rng))
        return targets


@dataclass
class BarabasiAlbertFamily(GraphFamily):
    """Barabási–Albert graphs (Section 3 contrast)."""

    m: int = 1

    prefix_stable = True

    def __post_init__(self) -> None:
        self.name = f"ba(m={self.m})"

    def build(self, size: int, seed: RandomLike = None) -> MultiGraph:
        return barabasi_albert_graph(size, self.m, seed=seed)

    def build_frozen(
        self,
        size: int,
        seed: RandomLike = None,
        generator: str = "serial",
    ) -> FrozenGraph:
        if generator == "vectorized":
            from repro.graphs.fastgen import fast_barabasi_albert_frozen

            return fast_barabasi_albert_frozen(size, self.m, seed=seed)
        return super().build_frozen(size, seed=seed)

    def build_trajectory(
        self,
        sizes: Sequence[int],
        seed: RandomLike = None,
        generator: str = "serial",
    ) -> Tuple[MultiGraph, Dict[int, int]]:
        ordered = _validated_checkpoints(sizes, minimum=2)
        if generator == "vectorized":
            graph = self.build_frozen(
                ordered[-1], seed=seed, generator=generator
            )
        else:
            graph = self.build(ordered[-1], seed=seed)
        # One seed self-loop plus m edges per vertex 2 .. n.
        return graph, {n: 1 + (n - 1) * self.m for n in ordered}

    def churn_join_edges(self, sampler, rng) -> List[int]:
        """``m`` endpoints by classic total-degree preference."""
        return [sampler.degree_vertex(rng) for _ in range(self.m)]


@dataclass
class ConfigurationFamily(GraphFamily):
    """Giant component of a power-law configuration model (Adamic, E7).

    ``build`` generates a size-``size`` Molloy–Reed graph and returns
    its largest component (fewer than ``size`` vertices, so
    ``exact_size`` is False), relabelled order-preservingly (so the
    highest new identity is still the "newest" vertex in spirit — ids
    are arbitrary in this model anyway, neighbors being independent).
    """

    exponent: float = 2.5
    min_degree: int = 1
    max_degree: Optional[int] = None

    exact_size = False

    def __post_init__(self) -> None:
        self.name = f"config(k={self.exponent:g})"

    def build(self, size: int, seed: RandomLike = None) -> MultiGraph:
        full = power_law_configuration_graph(
            size,
            self.exponent,
            min_degree=self.min_degree,
            max_degree=self.max_degree,
            seed=seed,
        )
        giant = largest_component(full)
        return induced_subgraph(full, giant).graph

    def theorem_target(self, graph: MultiGraph) -> int:
        """Highest identity in the (relabelled) giant component."""
        return graph.num_vertices

    def default_start(self, graph: MultiGraph) -> int:
        return 1

    def churn_join_edges(self, sampler, rng) -> List[int]:
        """``min_degree`` uniform endpoints.

        The configuration model has no arrival dynamics — neighbors
        are degree-sequence pairings, independent of identity — so a
        joining peer wires to uniformly random live peers at the
        family's minimum degree.
        """
        return [
            sampler.uniform_vertex(rng) for _ in range(self.min_degree)
        ]
