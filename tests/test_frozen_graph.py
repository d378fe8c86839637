"""Backend-equivalence battery: FrozenGraph must mirror MultiGraph.

The CSR snapshot is only allowed to change wall-clock time.  These
tests pin the contract from every side:

* **property grid** — across seeded instances of all graph models
  (Móri, Cooper–Frieze, BA, Kleinberg, configuration), every read
  query (degrees, incident edge ids, neighbors, self-loop counts,
  components, BFS distances, ...) answers identically on both backends;
* **search equivalence** — full searches, including the flooding CSR
  kernel's fast path, return bit-identical ``SearchResult`` values;
* **batched trials** — :func:`repro.core.trials.batched_search_trial`
  reproduces the portfolio trial draw-for-draw, on either backend;
* **freeze-then-hash** — the documented mutability caveat on
  ``MultiGraph.__hash__`` and the snapshot's stability under it;
* **array-native snapshots** — every origin (vectorized generator,
  shared memory, corpus) holds int64 columns and builds the scalar
  lists only on first use.
"""

from __future__ import annotations

import os

import pytest

from repro.core.families import (
    BarabasiAlbertFamily,
    ConfigurationFamily,
    CooperFriezeFamily,
    MoriFamily,
)
from repro.errors import ExperimentError, GraphConstructionError
from repro.graphs import FrozenGraph, MultiGraph, freeze, kleinberg_grid
from repro.graphs.components import connected_components
from repro.graphs.frozen import (
    vectorized_bfs_distances,
    vectorized_connected_components,
    vectorized_degree_histogram,
)
from repro.analysis.degrees import degree_histogram
from repro.analysis.diameter import bfs_distances
from repro.search.algorithms import FloodingSearch, RandomWalkSearch
from repro.search.oracle import WeakOracle
from repro.search.process import run_search


def model_graph(model: str, seed: int) -> MultiGraph:
    """One modest instance of each model the paper touches."""
    if model == "mori":
        return MoriFamily(p=0.5, m=2).build(150, seed=seed)
    if model == "cooper-frieze":
        return CooperFriezeFamily().build(120, seed=seed)
    if model == "ba":
        return BarabasiAlbertFamily(m=2).build(150, seed=seed)
    if model == "config":
        # Unrestricted configuration graph: disconnected, with loops
        # and parallel edges — the adversarial case for a snapshot.
        from repro.graphs.configuration import (
            power_law_configuration_graph,
        )

        return power_law_configuration_graph(150, 2.5, seed=seed)
    if model == "kleinberg":
        return kleinberg_grid(10, r=2.0, q=1, seed=seed).graph
    raise AssertionError(model)


MODELS = ("mori", "cooper-frieze", "ba", "config", "kleinberg")
SEEDS = (0, 7)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", MODELS)
class TestBackendEquivalence:
    """Frozen answers == mutable answers, across the model grid."""

    def test_scalar_queries_agree(self, model, seed):
        graph = model_graph(model, seed)
        frozen = freeze(graph)
        assert frozen.num_vertices == graph.num_vertices
        assert frozen.num_edges == graph.num_edges
        assert frozen.vertices() == graph.vertices()
        assert frozen.num_self_loops() == graph.num_self_loops()
        assert frozen.is_connected() == graph.is_connected()
        assert frozen.degree_sequence() == graph.degree_sequence()

    def test_per_vertex_queries_agree(self, model, seed):
        graph = model_graph(model, seed)
        frozen = freeze(graph)
        for v in graph.vertices():
            assert frozen.degree(v) == graph.degree(v)
            assert frozen.in_degree(v) == graph.in_degree(v)
            assert frozen.out_degree(v) == graph.out_degree(v)
            assert frozen.incident_edges(v) == graph.incident_edges(v)
            assert frozen.neighbors(v) == graph.neighbors(v)
            assert frozen.unique_neighbors(v) == (
                graph.unique_neighbors(v)
            )

    def test_per_edge_queries_agree(self, model, seed):
        graph = model_graph(model, seed)
        frozen = freeze(graph)
        assert list(frozen.edges()) == list(graph.edges())
        for eid in range(graph.num_edges):
            tail, head = graph.edge_endpoints(eid)
            assert frozen.edge_endpoints(eid) == (tail, head)
            assert frozen.other_endpoint(eid, tail) == (
                graph.other_endpoint(eid, tail)
            )
            assert frozen.other_endpoint(eid, head) == (
                graph.other_endpoint(eid, head)
            )

    def test_components_agree(self, model, seed):
        graph = model_graph(model, seed)
        frozen = freeze(graph)
        assert connected_components(frozen) == (
            connected_components(graph)
        )

    def test_bfs_distances_agree(self, model, seed):
        graph = model_graph(model, seed)
        frozen = freeze(graph)
        for source in (1, graph.num_vertices, graph.num_vertices // 2):
            if source >= 1:
                assert bfs_distances(frozen, source) == (
                    bfs_distances(graph, source)
                )

    def test_degree_histogram_agrees(self, model, seed):
        graph = model_graph(model, seed)
        frozen = freeze(graph)
        assert degree_histogram(frozen) == degree_histogram(graph)

    def test_python_int_types_everywhere(self, model, seed):
        """No numpy scalars may leak into the scalar API (JSON safety)."""
        frozen = freeze(model_graph(model, seed))
        v = frozen.num_vertices
        samples = (
            frozen.degree(1),
            *frozen.incident_edges(1)[:3],
            *frozen.neighbors(v)[:3],
            *frozen.degree_sequence()[:3],
            *bfs_distances(frozen, 1)[:3],
        )
        for value in samples:
            assert type(value) is int


class TestVectorizedKernels:
    """The numpy kernels answer exactly; non-frozen inputs bow out."""

    def test_kernels_decline_multigraph(self, triangle):
        assert vectorized_bfs_distances(triangle, 1) is None
        assert vectorized_connected_components(triangle) is None
        assert vectorized_degree_histogram(triangle) is None

    def test_component_ordering_matches_generic(self):
        # Equal-size components: largest first, ties by smallest member
        # (the generic discovery-order + stable-sort behaviour).
        graph = MultiGraph(7)
        graph.add_edge(2, 1)
        graph.add_edge(4, 3)
        graph.add_edge(6, 5)
        graph.add_edge(7, 5)
        frozen = freeze(graph)
        expected = connected_components(graph)
        assert expected == [[5, 6, 7], [1, 2], [3, 4]]
        assert connected_components(frozen) == expected

    def test_isolated_vertices_and_empty_graphs(self):
        for n in (0, 1, 5):
            frozen = freeze(MultiGraph(n))
            graph = MultiGraph(n)
            assert connected_components(frozen) == (
                connected_components(graph)
            )
            assert frozen.is_connected() == graph.is_connected()

    def test_self_loops_and_parallel_edges(self, loop_graph):
        frozen = freeze(loop_graph)
        assert frozen.neighbors(2) == loop_graph.neighbors(2)
        assert frozen.degree(2) == 3  # loop counts twice
        assert bfs_distances(frozen, 1) == bfs_distances(loop_graph, 1)


class TestImmutability:
    def test_mutators_raise(self, triangle):
        frozen = freeze(triangle)
        with pytest.raises(GraphConstructionError):
            frozen.add_vertex()
        with pytest.raises(GraphConstructionError):
            frozen.add_edge(1, 2)

    def test_invalid_queries_raise_like_multigraph(self, triangle):
        frozen = freeze(triangle)
        with pytest.raises(GraphConstructionError):
            frozen.degree(0)
        with pytest.raises(GraphConstructionError):
            frozen.incident_edges(4)
        with pytest.raises(GraphConstructionError):
            frozen.edge_endpoints(99)
        with pytest.raises(GraphConstructionError):
            frozen.other_endpoint(0, 3)  # vertex 3 not on edge 0

    def test_freeze_is_idempotent(self, triangle):
        frozen = freeze(triangle)
        assert freeze(frozen) is frozen
        assert FrozenGraph.from_multigraph(frozen) is frozen

    def test_thaw_round_trips(self, loop_graph):
        frozen = freeze(loop_graph)
        thawed = frozen.thaw()
        assert thawed == loop_graph
        assert thawed is not loop_graph
        eid = thawed.add_edge(1, 1)  # thawed copy is mutable again
        assert eid == loop_graph.num_edges

    def test_thaw_keeps_edge_ids_loops_and_parallels(self):
        """The adversarial pin: ids, loop counts, parallel bundles.

        Thawing must give back the *labeled* edge list: a permutation
        of a parallel bundle would still pass plain isomorphism yet
        break the incidence-slot order the walk oracles read.
        """
        graph = MultiGraph(5)  # vertex 5 stays isolated
        graph.add_edge(1, 1)  # self-loop first, id 0
        graph.add_edge(2, 1)
        graph.add_edge(2, 1)  # parallel bundle, ids 1-2
        graph.add_edge(1, 2)  # reverse orientation, id 3
        graph.add_edge(3, 3)
        graph.add_edge(3, 3)  # doubled self-loop, ids 4-5
        graph.add_edge(4, 3)
        thawed = freeze(graph).thaw()
        assert thawed == graph
        assert list(thawed.edges()) == list(graph.edges())
        assert thawed.num_self_loops() == 3
        for vertex in graph.vertices():
            assert thawed.incident_edges(vertex) == graph.incident_edges(
                vertex
            )
        assert hash(freeze(thawed)) == hash(freeze(graph))

    def test_vectorized_snapshot_survives_thaw_and_refreeze(self):
        from repro.graphs.fastgen import fast_merged_mori_frozen

        snapshot = fast_merged_mori_frozen(60, 2, 0.5, seed=0)
        thawed = snapshot.thaw()
        assert freeze(thawed) == snapshot
        assert list(thawed.edges()) == list(snapshot.edges())


class TestFreezeThenHashContract:
    """The documented hashing rules for both backends."""

    def test_snapshot_hash_and_equality_cross_backend(self, triangle):
        frozen = freeze(triangle)
        assert frozen == triangle
        assert triangle == frozen.thaw()
        assert hash(frozen) == hash(triangle)
        assert freeze(triangle.copy()) == frozen

    def test_multigraph_hash_breaks_on_mutation(self, triangle):
        """The caveat the docstring warns about, made concrete."""
        lookup = {triangle: "registered"}
        assert lookup[triangle] == "registered"
        triangle.add_edge(3, 1)
        # The mutated graph no longer hashes to its old bucket: the
        # dict can neither find it nor (in general) evict it by key.
        with pytest.raises(KeyError):
            lookup[triangle]

    def test_frozen_hash_survives_source_mutation(self, triangle):
        frozen = freeze(triangle)
        before = hash(frozen)
        lookup = {frozen: "registered"}
        triangle.add_edge(3, 1)  # mutate the source after snapshotting
        assert hash(frozen) == before
        assert lookup[frozen] == "registered"
        # ... and the snapshot no longer equals the mutated source.
        assert frozen != triangle


class TestSearchEquivalence:
    """Full searches are bit-identical across backends."""

    @pytest.mark.parametrize("model", ("mori", "config"))
    def test_random_walk_identical(self, model):
        graph = model_graph(model, seed=3)
        frozen = freeze(graph)
        target = max(
            connected_components(graph)[0]
        )  # reachable in every model
        start = min(connected_components(graph)[0])
        for seed in (0, 11):
            a = run_search(
                RandomWalkSearch(), graph, start, target, seed=seed
            )
            b = run_search(
                RandomWalkSearch(), frozen, start, target, seed=seed
            )
            assert a == b

    @pytest.mark.parametrize("budget", (0, 1, 2, 17, None))
    def test_flooding_kernel_matches_generic(self, budget):
        """CSR fast path == generic dict path == MultiGraph path."""
        graph = MoriFamily(p=0.5, m=2).build(200, seed=5)
        frozen = freeze(graph)
        target = MoriFamily(p=0.5, m=2).theorem_target(graph)
        on_mutable = run_search(
            FloodingSearch(), graph, 1, target, budget=budget, seed=1
        )
        on_frozen = run_search(
            FloodingSearch(), frozen, 1, target, budget=budget, seed=1
        )
        assert on_frozen == on_mutable

        # An oracle *subclass* must take the generic request-by-request
        # path even on a frozen graph (recording oracles rely on this),
        # and must still produce the same result.
        class RecordingOracle(WeakOracle):
            pass

        oracle = RecordingOracle(frozen, 1, target)
        effective = (
            budget if budget is not None else 4 * frozen.num_edges + 16
        )
        generic = FloodingSearch().run(oracle, None, effective)
        assert generic == on_mutable

    def test_flooding_kernel_neighbor_success(self):
        graph = MoriFamily(p=0.5, m=1).build(150, seed=9)
        frozen = freeze(graph)
        target = MoriFamily(p=0.5, m=1).theorem_target(graph)
        a = run_search(
            FloodingSearch(), graph, 1, target, neighbor_success=True,
            seed=2,
        )
        b = run_search(
            FloodingSearch(), frozen, 1, target, neighbor_success=True,
            seed=2,
        )
        assert a == b

    def test_flooding_kernel_start_in_zone(self):
        graph = MultiGraph.from_edges(3, [(2, 1), (3, 2)])
        frozen = freeze(graph)
        result = run_search(FloodingSearch(), frozen, 2, 2, seed=0)
        assert result.found and result.requests == 0


class TestBatchedTrials:
    """One snapshot, many cells — draw-for-draw identical regrouping."""

    def test_batched_reproduces_portfolio_trial(self):
        from repro.core.families import MoriFamily as Fam
        from repro.core.trials import (
            batched_search_trial,
            family_spec,
            portfolio_factories,
            search_cost_graph_trial,
        )

        spec = family_spec(Fam(p=0.5, m=1))
        kwargs = dict(
            family=spec, size=120, portfolio="weak", seed=424242
        )
        grouped = search_cost_graph_trial(**kwargs, runs_per_graph=2)
        cells = [
            {"algorithm": name, "run_index": run_index}
            for name in portfolio_factories("weak")
            for run_index in range(2)
        ]
        for backend in ("frozen", "multigraph"):
            flat = batched_search_trial(
                **kwargs, cells=cells, backend=backend
            )
            regrouped: dict = {}
            for cell, value in zip(cells, flat):
                regrouped.setdefault(cell["algorithm"], []).append(
                    value
                )
            assert regrouped == grouped

    def test_cell_overrides_and_unknown_algorithm(self):
        from repro.core.families import MoriFamily as Fam
        from repro.core.trials import batched_search_trial, family_spec

        spec = family_spec(Fam(p=0.5, m=1))
        flat = batched_search_trial(
            family=spec,
            size=80,
            portfolio="weak",
            cells=[
                {"algorithm": "flooding", "start": 5, "target": 40},
                {"algorithm": "flooding", "start": 5, "target": 40},
            ],
            seed=3,
        )
        assert flat[0] == flat[1]  # flooding is deterministic
        assert flat[0]["start"] == 5 and flat[0]["target"] == 40
        with pytest.raises(ExperimentError):
            batched_search_trial(
                family=spec,
                size=80,
                portfolio="weak",
                cells=[{"algorithm": "not-a-member"}],
                seed=3,
            )

    def test_runner_batching_helpers(self):
        from repro.core.families import MoriFamily as Fam
        from repro.core.trials import (
            batched_search_trial,
            family_spec,
        )
        from repro.runner import (
            batched_specs,
            run_trials,
            trial_ref,
            unbatch_values,
        )

        spec = family_spec(Fam(p=0.5, m=1))
        cells = [
            {"algorithm": "flooding", "run_index": 0},
            {"algorithm": "random-walk", "run_index": 0},
        ]
        specs = batched_specs(
            "ADHOC",
            trial_ref(batched_search_trial),
            {"family": spec, "size": 80, "portfolio": "weak"},
            cells,
            graph_seeds=[1, 2],
        )
        assert [s.seed for s in specs] == [1, 2]
        outcomes = run_trials(specs)
        per_graph = unbatch_values(outcomes, len(cells))
        assert len(per_graph) == 2
        assert per_graph[0] == batched_search_trial(
            family=spec, size=80, portfolio="weak", cells=cells, seed=1
        )
        with pytest.raises(ExperimentError):
            unbatch_values(outcomes, len(cells) + 1)
        with pytest.raises(ExperimentError):
            batched_specs(
                "ADHOC",
                trial_ref(batched_search_trial),
                {},
                [],
                graph_seeds=[1],
            )

    def test_unknown_backend_rejected(self):
        from repro.core.trials import snapshot_graph

        with pytest.raises(ExperimentError):
            snapshot_graph(MultiGraph(2), "networkx")

    def test_default_backend_keeps_cache_keys_stable(self):
        """Existing stores are filed under keys without a backend: this
        cell's key, recorded when ``backend`` was still an experiment
        axis and left at its ``frozen`` default, must not move."""
        from repro.core.families import MoriFamily as Fam
        from repro.core.searchability import _build_cell_specs

        (spec,) = _build_cell_specs(
            "E1", Fam(p=0.5, m=1), 60, "weak", 1, 1, None, 1,
            False, "default",
        )
        assert "backend" not in spec.params
        assert spec.key() == (
            "E1",
            "4349c08dd8dd4ac96d7205f3d1a8b6de"
            "46cf506699273e46fcbf1cec2541976d",
            627405149472732430,
        )


def _snapshot_digest(graph) -> str:
    """Content digest of a (frozen or mutable) graph's labeled edge list.

    sha256 of canonical JSON rather than ``hash()`` so the goldens are
    stable across interpreter invocations, versions, and platforms.
    """
    import hashlib
    import json

    payload = json.dumps(
        [graph.num_vertices, [[t, h] for _, t, h in graph.edges()]],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: sha256 of (n, edge list) for `family.build(n, seed=0)` — and therefore,
#: by the trajectory contract, for the checkpoint snapshot at n of one
#: seed-0 realisation evolved to the largest size.  Regenerate with
#: `_snapshot_digest` if a model's draw order legitimately changes.
TRAJECTORY_GOLDEN_SIZES = (50, 80, 120)
TRAJECTORY_GOLDEN = {
    "mori": {
        50: "80b067d38ce046e052a984ed6df8611a990a1782f5adaf658ec877b23be75436",
        80: "63bb61d0fc4e2296e684d279dc62294f70a6aa2f7fccdb77b180ff6d132c6dcb",
        120: "94c44774344ba23457c8e383e2391cb7ed85bdf933166474163901cb8963a96c",
    },
    "cooper-frieze": {
        50: "5cf4fbb4a442716fafae51b8e12fcaece6316bfde043b99b1dbd843d9621be25",
        80: "e9e749a6b17a0e6d50b363f2969c890771e4cfe1eafa40a7e0008330886414a7",
        120: "e71cea24eeb64d1c54fa4d7bbccbaf1decb62a9801ac31afa7555ae86610d919",
    },
    "ba": {
        50: "b7d41097a9943fe3b312f0a635b79c76a5b253d65d4590c20afb890c4101af4f",
        80: "539dd19deec47a8818821e0966f52c12490e291ed87e746780e29e724311950a",
        120: "65122620c3fc680472c159bbd968a029eadb269bf5f736429e3e341032180e10",
    },
}

TRAJECTORY_FAMILIES = {
    "mori": lambda: MoriFamily(p=0.5, m=2),
    "cooper-frieze": lambda: CooperFriezeFamily(),
    "ba": lambda: BarabasiAlbertFamily(m=2),
}


class TestTrajectoryCheckpoints:
    """Checkpoint snapshots == independent same-seed builds, bit for bit."""

    @pytest.mark.parametrize("model", sorted(TRAJECTORY_FAMILIES))
    def test_golden_checkpoint_digests(self, model):
        """The pinned digests hold for independent builds AND for the
        prefix snapshots of one shared trajectory, on both backends."""
        family = TRAJECTORY_FAMILIES[model]()
        golden = TRAJECTORY_GOLDEN[model]
        graph, marks = family.build_trajectory(
            TRAJECTORY_GOLDEN_SIZES, seed=0
        )
        full = freeze(graph)
        for n in TRAJECTORY_GOLDEN_SIZES:
            assert _snapshot_digest(family.build(n, seed=0)) == golden[n]
            assert _snapshot_digest(full.prefix(n, marks[n])) == golden[n]
            assert _snapshot_digest(graph.prefix(n, marks[n])) == golden[n]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("model", sorted(TRAJECTORY_FAMILIES))
    def test_prefix_equals_independent_build(self, model, seed):
        family = TRAJECTORY_FAMILIES[model]()
        sizes = (40, 70, 110)
        graph, marks = family.build_trajectory(sizes, seed=seed)
        full = freeze(graph)
        for n in sizes:
            independent = family.build(n, seed=seed)
            snapshot = full.prefix(n, marks[n])
            # Equality and hashing follow the labeled-edge-list contract.
            assert snapshot == independent
            assert hash(snapshot) == hash(freeze(independent))
            assert graph.prefix(n, marks[n]) == independent
            # Read API answers match the independently built graph.
            assert snapshot.degree_sequence() == (
                independent.degree_sequence()
            )
            assert snapshot.num_self_loops() == (
                independent.num_self_loops()
            )
            for v in (1, n // 2, n):
                assert snapshot.incident_edges(v) == (
                    independent.incident_edges(v)
                )
                assert snapshot.neighbors(v) == independent.neighbors(v)
                assert snapshot.in_degree(v) == independent.in_degree(v)
                assert snapshot.out_degree(v) == (
                    independent.out_degree(v)
                )

    def test_prefix_of_full_graph_is_identity(self):
        family = MoriFamily(p=0.5, m=1)
        graph, marks = family.build_trajectory((30, 60), seed=1)
        full = freeze(graph)
        assert full.prefix(60, marks[60]) is full

    def test_prefix_rejects_non_past_states(self):
        graph = MultiGraph.from_edges(3, [(2, 1), (3, 1)])
        frozen = freeze(graph)
        # Cutting only the vertex count strands edge (3, 1): the pair
        # (2 vertices, 2 edges) was never a state this graph passed
        # through.
        with pytest.raises(GraphConstructionError):
            frozen.prefix(2, 2)
        with pytest.raises(GraphConstructionError):
            graph.prefix(2, 2)
        with pytest.raises(GraphConstructionError):
            frozen.prefix(4, 1)
        with pytest.raises(GraphConstructionError):
            frozen.prefix(3, 5)
        # The genuine past state is fine.
        assert frozen.prefix(2, 1) == MultiGraph.from_edges(2, [(2, 1)])

    def test_configuration_family_rejects_trajectory(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            ConfigurationFamily().build_trajectory((40, 80), seed=0)


class TestTrajectoryTrials:
    """One trajectory spec reproduces the independent trials draw-for-draw."""

    def test_checkpoint_cells_equal_independent_trials(self):
        from repro.core.trials import (
            family_spec,
            search_cost_graph_trial,
            trajectory_scaling_trial,
        )

        spec = family_spec(MoriFamily(p=0.5, m=1))
        sizes = [60, 120]
        for backend in ("frozen", "multigraph"):
            value = trajectory_scaling_trial(
                family=spec,
                sizes=sizes,
                portfolio="high-degree",
                runs_per_graph=2,
                seed=77,
                backend=backend,
            )
            for n in sizes:
                assert value[str(n)] == search_cost_graph_trial(
                    family=spec,
                    size=n,
                    portfolio="high-degree",
                    runs_per_graph=2,
                    seed=77,
                )

    def test_slowdown_checkpoints_equal_independent_trials(self):
        from repro.core.trials import (
            family_spec,
            simulation_slowdown_trial,
            trajectory_slowdown_trial,
        )

        spec = family_spec(MoriFamily(p=0.25, m=1))
        sizes = [60, 120]
        value = trajectory_slowdown_trial(
            family=spec, sizes=sizes, seed=5
        )
        for n in sizes:
            assert value[str(n)] == simulation_slowdown_trial(
                family=spec, size=n, seed=5
            )

    def test_runner_trajectory_helpers(self):
        from repro.core.trials import (
            family_spec,
            trajectory_scaling_trial,
        )
        from repro.runner import (
            run_trials,
            split_trajectory_values,
            trajectory_specs,
            trial_ref,
        )
        from repro.errors import ExperimentError

        spec = family_spec(MoriFamily(p=0.5, m=1))
        specs = trajectory_specs(
            "ADHOC",
            trial_ref(trajectory_scaling_trial),
            {"family": spec, "portfolio": "high-degree",
             "runs_per_graph": 1},
            [120, 60],
            graph_seeds=[3, 4],
        )
        assert [s.seed for s in specs] == [3, 4]
        assert specs[0].params["sizes"] == [60, 120]  # canonicalized
        outcomes = run_trials(specs)
        per_size = split_trajectory_values(outcomes, [60, 120])
        assert set(per_size) == {60, 120}
        assert len(per_size[60]) == 2
        assert per_size[60][0] == trajectory_scaling_trial(
            family=spec, sizes=[60, 120], portfolio="high-degree",
            runs_per_graph=1, seed=3,
        )["60"]
        with pytest.raises(ExperimentError):
            split_trajectory_values(outcomes, [60, 120, 999])
        with pytest.raises(ExperimentError):
            trajectory_specs(
                "ADHOC", "m:f", {}, [], graph_seeds=[1]
            )

    def test_trajectory_value_survives_store_round_trip(self, tmp_path):
        """String size keys keep the value identical through JSON."""
        from repro.core.trials import (
            family_spec,
            trajectory_scaling_trial,
        )
        from repro.runner import (
            TrialStore,
            run_trials,
            trajectory_specs,
            trial_ref,
        )

        spec = family_spec(MoriFamily(p=0.5, m=1))
        specs = trajectory_specs(
            "ADHOC",
            trial_ref(trajectory_scaling_trial),
            {"family": spec, "portfolio": "high-degree",
             "runs_per_graph": 1},
            [60, 120],
            graph_seeds=[8],
        )
        store = TrialStore(tmp_path)
        fresh = run_trials(specs, store=store)
        replayed = run_trials(specs, store=store)
        assert replayed[0].from_cache
        assert replayed[0].value == fresh[0].value


def _scalar_lists(graph):
    """The snapshot's lazily built endpoint and degree lists."""
    return graph._endpoints, graph._indegree, graph._outdegree


def _array_native_snapshots(tmp_path):
    """``(name, snapshot, source MultiGraph, cleanup)`` per snapshot
    origin: the vectorized generator, a shared-memory attach and a
    corpus load."""
    from repro.core.trials import family_spec
    from repro.graphs.corpus import GraphCorpus
    from repro.graphs.shm import attach_graph, publish_graph

    family = MoriFamily(p=0.5, m=2)
    source = family.build(90, seed=6)
    built = family.build_frozen(90, seed=6, generator="vectorized")
    yield "fastgen", built, source, lambda: None

    segment = publish_graph(built)
    attached = attach_graph(segment.name)

    def detach():
        attached.close()
        segment.close()
        segment.unlink()

    yield "shm", attached, source, detach

    corpus = GraphCorpus(tmp_path / "corpus")
    corpus.put(family_spec(family), 90, 6, source)
    yield "corpus", corpus.get(family_spec(family), 90, 6), source, (
        lambda: None
    )


class TestArrayNativeSnapshots:
    """A snapshot holds arrays, not per-edge lists.

    The endpoint and degree lists exist only for the scalar API and are
    built on its first call; everything else (shared memory, the
    corpus, ``prefix``, components) reads the columns.
    """

    def test_no_lists_until_scalar_access(self, tmp_path):
        for name, graph, source, cleanup in _array_native_snapshots(
            tmp_path
        ):
            try:
                assert _scalar_lists(graph) == (None, None, None), name
                assert graph.num_edges == source.num_edges
                graph.degree(5), graph.incident_edges(5)
                graph.neighbors(5), graph.degree_sequence()
                # 40 merged vertices are 80 tree vertices: 79 edges.
                graph.prefix(40, 79)
                vectorized_connected_components(graph)
                assert _scalar_lists(graph) == (None, None, None), name
            finally:
                cleanup()

    def test_scalar_api_answers_as_the_source(self, tmp_path):
        for name, graph, source, cleanup in _array_native_snapshots(
            tmp_path
        ):
            try:
                assert graph.in_degree(3) == source.in_degree(3)
                assert graph._endpoints is None, name
                assert graph._indegree is not None, name
                for v in source.vertices():
                    assert graph.in_degree(v) == source.in_degree(v)
                    assert graph.out_degree(v) == source.out_degree(v)
                for eid, tail, head in source.edges():
                    assert graph.edge_endpoints(eid) == (tail, head)
                    assert graph.other_endpoint(eid, tail) == head
                    assert graph.other_endpoint(eid, head) == tail
                assert list(graph.edges()) == list(source.edges())
                assert graph == source and source == graph
                assert hash(graph) == hash(source)
                assert graph.thaw() == source
                assert all(
                    value is not None for value in _scalar_lists(graph)
                ), name
                with pytest.raises(GraphConstructionError):
                    graph.edge_endpoints(graph.num_edges)
            finally:
                cleanup()

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"),
        reason="reads this process's memory map",
    )
    def test_close_after_scalar_access_releases_the_mapping(self):
        from repro.graphs.fastgen import fast_mori_tree_frozen
        from repro.graphs.shm import attach_graph, publish_graph

        def mapped(name):
            with open("/proc/self/maps", encoding="utf-8") as maps:
                return f"/{name}" in maps.read()

        segment = publish_graph(fast_mori_tree_frozen(80, 0.5, seed=2))
        segment.close()  # only the attachment maps it now
        try:
            attached = attach_graph(segment.name)
            assert mapped(segment.name)
            attached.in_degree(2), attached.out_degree(2)
            attached.edge_endpoints(0), attached.incident_edges(2)
            attached.close()
            # A view still exporting the buffer makes the mapping's
            # close fail with BufferError, leaving it mapped.
            assert not mapped(segment.name)
        finally:
            segment.unlink()

