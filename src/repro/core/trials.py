"""Pure top-level trial functions for the runner.

Each function here is one Monte-Carlo cell of an experiment grid,
re-expressed as a pure function of JSON-serializable parameters plus a
substream-derived seed — the contract :mod:`repro.runner` needs to
execute cells in worker processes and replay them from the result
store.  The decompositions reproduce the original inner loops *exactly*
(same substream indices, same draw order), so dispatching through the
runner changes no published number; ``tests/test_experiment_regression``
pins this.

Graph families and algorithm portfolios cross process boundaries by
*name*: :func:`family_spec` / :func:`build_family` serialize the former,
:func:`portfolio_factories` resolves the latter.

Search trials take a ``backend`` parameter: after the evolving
construction finishes, ``"frozen"`` (the default, and the only form
experiments use) snapshots the graph into a
:class:`~repro.graphs.frozen.FrozenGraph` so the whole batch of search
cells runs on the read-optimised CSR form, while ``"multigraph"``
keeps the mutable object as the reference the equivalence batteries
call.  The choice affects wall-clock time only — every number is
backend-independent (``tests/test_frozen_graph.py`` and the
regression pins enforce it).
:func:`batched_search_trial` is the general form: one generated graph
serves an explicit batch of (algorithm, start, target, run) cells, each
with the same substream-derived run seed the serial loops used.

:func:`trajectory_scaling_trial` / :func:`trajectory_slowdown_trial`
extend the bargain along the *size* axis: one evolved realisation is
checkpoint-snapshotted at every grid size (see
:func:`trajectory_snapshots`), and each checkpoint's cells are
bit-identical to the corresponding independent same-seed trial.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis.degrees import max_degree
from repro.analysis.powerlaw_fit import fit_power_law
from repro.core.families import (
    BarabasiAlbertFamily,
    ConfigurationFamily,
    CooperFriezeFamily,
    GraphFamily,
    MoriFamily,
)
from repro.errors import ExperimentError
from repro.graphs.base import MultiGraph
from repro.graphs.churn import CHURN_BIASES, ChurnProcess
from repro.graphs.components import connected_components
from repro.graphs.delta import DeltaGraph
from repro.graphs.frozen import GraphBackend, freeze
from repro.graphs.cooper_frieze import CooperFriezeParams
from repro.graphs.kleinberg import kleinberg_grid
from repro.rng import make_rng, run_substream, substream
from repro.search.algorithms import (
    AgeGreedySearch,
    DegreeBiasedWalkSearch,
    FloodingSearch,
    HighDegreeStrongSearch,
    HighDegreeWeakSearch,
    MixedStrategySearch,
    RandomWalkSearch,
    RestartingWalkSearch,
    SelfAvoidingWalkSearch,
    WeakSimulationOfStrong,
)
from repro.search.metrics import SearchResult
from repro.search.process import default_budget, run_search

__all__ = [
    "family_spec",
    "build_family",
    "build_specimen",
    "weak_factories",
    "strong_factories",
    "portfolio_factories",
    "choose_start",
    "fastest_available",
    "snapshot_graph",
    "build_graph_snapshot",
    "trajectory_snapshots",
    "search_cost_graph_trial",
    "batched_search_trial",
    "churn_search_trial",
    "churn_survival_trial",
    "trajectory_scaling_trial",
    "trajectory_slowdown_trial",
    "degree_fit_trial",
    "simulation_slowdown_trial",
    "result_to_dict",
    "result_from_dict",
]

#: Valid values of the ``backend`` trial parameter.
BACKENDS = ("frozen", "multigraph")

#: Valid values of the ``engine`` trial parameter.  ``"serial"`` steps
#: every search cell through the oracle machinery one run at a time;
#: ``"ensemble"`` advances all runs of each walk-family (algorithm,
#: start, target) cell together through the numpy kernel in
#: :mod:`repro.search.ensemble` (non-walk algorithms fall back to the
#: serial path per cell).  ``None`` (the default everywhere) means the
#: fastest available arm — see :func:`fastest_available`.  Like
#: ``backend``, the engine never changes a number — per-run costs,
#: flags, and oracle traces are bit-identical
#: (``tests/test_search_ensemble.py``) — only wall-clock time.
ENGINES = ("serial", "ensemble")

#: Valid values of the ``generator`` trial parameter.  ``"serial"``
#: grows graphs one edge at a time through the reference builders;
#: ``"vectorized"`` builds the same realisation through the batched
#: kernels in :mod:`repro.graphs.fastgen`, which consume the RNG in
#: exactly the serial draw order (families without a kernel build
#: serially).  ``None`` (the default everywhere) means the fastest
#: available arm — see :func:`fastest_available`.  Like ``backend``
#: and ``engine``, the generator never changes a number — edge lists,
#: edge ids, and snapshot hashes are bit-identical
#: (``tests/test_fastgen_equivalence.py``) — only wall-clock time.
GENERATORS = ("serial", "vectorized")


def fastest_available(choice: Optional[str], axis) -> str:
    """Resolve and validate an ``engine``/``generator`` choice.

    ``axis`` is :data:`ENGINES` or :data:`GENERATORS`: ``(reference,
    fast)``.  ``None`` resolves to the fast numpy arm; the reference
    arm is taken only when named explicitly, and an explicit choice
    must be a member of ``axis``.  Trial functions resolve
    here, in whichever process runs them, so ``None`` never has to
    enter trial params (and hence cache keys).
    """
    if choice is None:
        return axis[1]
    if choice not in axis:
        label = "search engine" if axis == ENGINES else "graph generator"
        raise ExperimentError(
            f"unknown {label} {choice!r}; valid: {', '.join(axis)}"
        )
    return choice


def snapshot_graph(graph: MultiGraph, backend: str) -> GraphBackend:
    """Apply a backend choice to a freshly built graph.

    ``"frozen"`` returns an immutable CSR snapshot (the read-optimised
    default); ``"multigraph"`` returns the graph unchanged.  Numbers
    never depend on the choice — only wall-clock time does.
    """
    if backend == "frozen":
        return freeze(graph)
    if backend == "multigraph":
        return graph
    raise ExperimentError(
        f"unknown graph backend {backend!r}; valid: "
        f"{', '.join(BACKENDS)}"
    )


def trajectory_snapshots(
    graph: GraphBackend,
    marks: Dict[int, int],
    sizes,
    backend: str,
):
    """Per-checkpoint snapshots of one evolved realisation.

    ``graph``/``marks`` come from
    :meth:`~repro.core.families.GraphFamily.build_trajectory` (either
    backend: the vectorized generator hands over a
    :class:`~repro.graphs.frozen.FrozenGraph` directly).  Returns a
    list of ``(size, snapshot)`` in ascending size order; each snapshot
    is bit-identical to what :func:`snapshot_graph` would return for an
    independent same-seed build of that size.  On the ``"frozen"``
    backend the whole grid shares one full CSR freeze, each checkpoint
    being a buffer-reusing prefix slice of it.
    """
    ordered = sorted(set(sizes))
    if backend == "frozen":
        full = freeze(graph)
        return [(n, full.prefix(n, marks[n])) for n in ordered]
    if backend == "multigraph":
        from repro.graphs.frozen import FrozenGraph

        if isinstance(graph, FrozenGraph):
            graph = graph.thaw()
        return [(n, graph.prefix(n, marks[n])) for n in ordered]
    raise ExperimentError(
        f"unknown graph backend {backend!r}; valid: "
        f"{', '.join(BACKENDS)}"
    )


def build_graph_snapshot(
    family_obj: GraphFamily,
    size: int,
    seed: int,
    backend: str = "frozen",
    generator: Optional[str] = None,
) -> GraphBackend:
    """Build one family instance and snapshot it per ``backend``.

    The one place independent-build trials obtain their graph, so the
    ``generator`` axis and the on-disk corpus compose uniformly:

    * ``generator="vectorized"`` builds through
      :meth:`~repro.core.families.GraphFamily.build_frozen` (the
      fastgen kernels where the family has one — bit-identical to the
      serial builder), then thaws if ``backend="multigraph"`` asks for
      the mutable form.
    * When ``REPRO_CORPUS_DIR`` names a corpus (see
      :func:`repro.graphs.corpus.active_corpus`), the backend is
      ``"frozen"`` and the family builds exact-size graphs (the
      configuration family's giant component does not), the snapshot
      is served from / persisted to the memory-mapped store keyed by
      ``(family spec, n, seed)``.  The
      stored bytes are generator-independent, so a corpus built
      serially also serves vectorized runs (and vice versa) — the
      determinism contract makes them the same graph.

    Numbers never depend on any of this — only wall-clock time.
    """
    generator = fastest_available(generator, GENERATORS)

    def _build() -> GraphBackend:
        if generator == "vectorized":
            return family_obj.build_frozen(
                size, seed=seed, generator=generator
            )
        return family_obj.build(size, seed=seed)

    if backend == "frozen" and family_obj.exact_size:
        from repro.graphs.corpus import active_corpus

        corpus = active_corpus()
        if corpus is not None:
            try:
                spec = family_spec(family_obj)
            except ExperimentError:
                spec = None
            if spec is not None:
                return corpus.get_or_build(
                    spec, size, seed, _build, generator=generator
                )
    built = _build()
    if backend == "multigraph":
        from repro.graphs.frozen import FrozenGraph

        if isinstance(built, FrozenGraph):
            return built.thaw()
    return snapshot_graph(built, backend)


# ----------------------------------------------------------------------
# Family (de)serialization
# ----------------------------------------------------------------------


def family_spec(family: GraphFamily) -> Dict[str, Any]:
    """JSON-serializable description of ``family`` for trial params."""
    if isinstance(family, MoriFamily):
        return {"model": "mori", "p": family.p, "m": family.m}
    if isinstance(family, CooperFriezeFamily):
        params = family.params
        return {
            "model": "cooper-frieze",
            "alpha": params.alpha,
            "beta": params.beta,
            "gamma": params.gamma,
            "delta": params.delta,
            "new_edge_distribution": list(params.new_edge_distribution),
            "old_edge_distribution": list(params.old_edge_distribution),
            "preferential_by": params.preferential_by,
        }
    if isinstance(family, BarabasiAlbertFamily):
        return {"model": "ba", "m": family.m}
    if isinstance(family, ConfigurationFamily):
        return {
            "model": "config",
            "exponent": family.exponent,
            "min_degree": family.min_degree,
            "max_degree": family.max_degree,
        }
    raise ExperimentError(
        f"cannot serialize family {type(family).__name__} for a trial"
    )


def build_family(spec: Dict[str, Any]) -> GraphFamily:
    """Inverse of :func:`family_spec`."""
    model = spec.get("model")
    if model == "mori":
        return MoriFamily(p=spec["p"], m=spec["m"])
    if model == "cooper-frieze":
        return CooperFriezeFamily(
            params=CooperFriezeParams(
                alpha=spec["alpha"],
                beta=spec["beta"],
                gamma=spec["gamma"],
                delta=spec["delta"],
                new_edge_distribution=tuple(
                    spec["new_edge_distribution"]
                ),
                old_edge_distribution=tuple(
                    spec["old_edge_distribution"]
                ),
                preferential_by=spec["preferential_by"],
            )
        )
    if model == "ba":
        return BarabasiAlbertFamily(m=spec["m"])
    if model == "config":
        return ConfigurationFamily(
            exponent=spec["exponent"],
            min_degree=spec["min_degree"],
            max_degree=spec["max_degree"],
        )
    raise ExperimentError(f"unknown family model {model!r}")


def build_specimen(
    spec: Dict[str, Any], n: int, seed: int
) -> MultiGraph:
    """Build one graph from a family spec (E6's specimen rule).

    Kleinberg grids are not a :class:`GraphFamily` (their size is a
    lattice side, not a vertex count) but E6 compares against them, so
    this builder accepts ``{"model": "kleinberg", ...}`` too.
    """
    if spec.get("model") == "kleinberg":
        return kleinberg_grid(
            spec["side"], r=spec["r"], q=spec["q"], seed=seed
        ).graph
    return build_family(spec).build(n, seed=seed)


# ----------------------------------------------------------------------
# Algorithm portfolios (resolved by name inside workers)
# ----------------------------------------------------------------------


def weak_factories(include_omniscient: bool = False):
    """The weak-model portfolio (optionally plus the Lemma-1 baseline)."""
    from repro.core.searchability import (
        constant_factory,
        omniscient_factory,
    )

    factories = {
        "random-walk": constant_factory(RandomWalkSearch()),
        "flooding": constant_factory(FloodingSearch()),
        "high-degree": constant_factory(HighDegreeWeakSearch()),
        "age-oldest": constant_factory(AgeGreedySearch("oldest")),
        "age-closest-id": constant_factory(
            AgeGreedySearch("closest-id")
        ),
        "mixed-0.25": constant_factory(MixedStrategySearch(0.25)),
        "self-avoiding-walk": constant_factory(
            SelfAvoidingWalkSearch()
        ),
        "restart-walk-0.1": constant_factory(
            RestartingWalkSearch(restart_prob=0.1)
        ),
    }
    if include_omniscient:
        factories["omniscient-window"] = omniscient_factory()
    return factories


def strong_factories():
    """The strong-model portfolio."""
    from repro.core.searchability import constant_factory

    return {
        "high-degree-strong": constant_factory(HighDegreeStrongSearch()),
        "uniform-walk-strong": constant_factory(
            DegreeBiasedWalkSearch(beta=0.0)
        ),
        "biased-walk-strong": constant_factory(
            DegreeBiasedWalkSearch(beta=1.0)
        ),
    }


def _adamic_factories():
    from repro.core.searchability import constant_factory

    return {
        "high-degree-strong": constant_factory(HighDegreeStrongSearch()),
        "random-walk": constant_factory(RandomWalkSearch()),
    }


def _high_degree_factories():
    from repro.core.searchability import constant_factory

    return {"high-degree": constant_factory(HighDegreeWeakSearch())}


#: Portfolio name -> factory-dict builder.  Names are the serializable
#: handles trial specs carry across process boundaries.
PORTFOLIOS = {
    "weak": weak_factories,
    "weak-omniscient": lambda: weak_factories(include_omniscient=True),
    "strong": strong_factories,
    "adamic": _adamic_factories,
    "high-degree": _high_degree_factories,
}


def portfolio_factories(name: str):
    """Resolve a portfolio name to its factory dict (stable order)."""
    try:
        builder = PORTFOLIOS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown portfolio {name!r}; valid: "
            f"{', '.join(sorted(PORTFOLIOS))}"
        ) from None
    return builder()


def choose_start(
    family: GraphFamily,
    graph: GraphBackend,
    target: int,
    start_rule: str,
    graph_seed: int,
) -> int:
    """Resolve a start rule to a concrete vertex (never the target)."""
    if start_rule == "default":
        return family.default_start(graph)
    if start_rule == "newest-other":
        return target - 1 if target > 1 else target + 1
    if start_rule != "random":
        raise ExperimentError(f"unknown start_rule {start_rule!r}")
    rng = make_rng(substream(graph_seed, 0xA11CE))
    while True:
        start = rng.randint(1, graph.num_vertices)
        if start != target:
            return start


# ----------------------------------------------------------------------
# SearchResult (de)serialization for the result store
# ----------------------------------------------------------------------


def result_to_dict(result: SearchResult) -> Dict[str, Any]:
    """Lossless JSON form of a :class:`SearchResult`."""
    return {
        "algorithm": result.algorithm,
        "model": result.model,
        "found": result.found,
        "requests": result.requests,
        "start": result.start,
        "target": result.target,
        "extra": dict(result.extra),
    }


def result_from_dict(data: Dict[str, Any]) -> SearchResult:
    """Inverse of :func:`result_to_dict`."""
    return SearchResult(
        algorithm=data["algorithm"],
        model=data["model"],
        found=data["found"],
        requests=data["requests"],
        start=data["start"],
        target=data["target"],
        extra=dict(data["extra"]),
    )


# ----------------------------------------------------------------------
# Trial functions
# ----------------------------------------------------------------------


def _execute_cells(
    graph: GraphBackend,
    factories: Dict[str, Any],
    cells: List[Dict[str, Any]],
    *,
    default_start: int,
    default_target: int,
    budget: Optional[int],
    neighbor_success: bool,
    seed: int,
    engine: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Run a batch of search cells against one (snapshotted) graph.

    Each cell is ``{"algorithm": <portfolio member>, "run_index": i}``
    plus optional ``"start"`` / ``"target"`` overrides.  The run seed of
    a cell is :func:`repro.rng.run_substream` of ``(seed, name,
    run_index)`` — the exact formula of the original serial loop, so
    any regrouping of cells (by portfolio, by explicit batch, by
    ensemble) is draw-for-draw identical to the monolithic iteration.

    ``engine`` selects the execution strategy (see :data:`ENGINES`):
    under ``"ensemble"``, cells are grouped by (algorithm, start,
    target) and each walk-family group advances through
    :func:`repro.search.ensemble.run_ensemble` in one lock-step batch,
    each run seeded exactly as its serial counterpart; groups without a
    kernel run serially.  Results come back in cell order either way.
    """
    engine = fastest_available(engine, ENGINES)
    ensemble_groups: Dict[Any, List[int]] = {}
    ensemble_graph = graph
    if engine == "ensemble":
        from repro.search.ensemble import ensemble_supported, run_ensemble

        # One shared snapshot for every walk-family group (a no-op on
        # the frozen backend); run_ensemble would otherwise re-freeze
        # a multigraph-backend graph once per group.  A DeltaGraph
        # overlay passes through unfrozen — the kernel runs on its
        # masked-CSR view so edge ids (and hence traces) match the
        # serial path on the same overlay.
        if not isinstance(graph, DeltaGraph):
            ensemble_graph = freeze(graph)
    instance_budget = (
        budget if budget is not None else default_budget(graph)
    )

    algorithms: Dict[Any, Any] = {}

    def resolve(name: str, target: int):
        # Factories may close over the target (the omniscient window
        # does), so the instance cache is keyed by both.
        algorithm = algorithms.get((name, target))
        if algorithm is None:
            try:
                factory = factories[name]
            except KeyError:
                raise ExperimentError(
                    f"algorithm {name!r} is not in the portfolio; "
                    f"valid: {', '.join(sorted(factories))}"
                ) from None
            algorithm = factory(graph, target)
            algorithms[(name, target)] = algorithm
        return algorithm

    results: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    for position, cell in enumerate(cells):
        name = cell["algorithm"]
        target = cell.get("target", default_target)
        start = cell.get("start", default_start)
        algorithm = resolve(name, target)
        if engine == "ensemble" and ensemble_supported(algorithm):
            ensemble_groups.setdefault(
                (name, start, target), []
            ).append(position)
            continue
        result = run_search(
            algorithm,
            graph,
            start,
            target,
            budget=instance_budget,
            seed=run_substream(seed, name, cell.get("run_index", 0)),
            neighbor_success=neighbor_success,
        )
        results[position] = result_to_dict(result)

    for (name, start, target), positions in ensemble_groups.items():
        run_seeds = [
            run_substream(
                seed, name, cells[position].get("run_index", 0)
            )
            for position in positions
        ]
        cell_results = run_ensemble(
            algorithms[(name, target)],
            ensemble_graph,
            start,
            target,
            run_seeds,
            budget=instance_budget,
            neighbor_success=neighbor_success,
        )
        for position, result in zip(positions, cell_results):
            results[position] = result_to_dict(result)
    return results


def search_cost_graph_trial(
    *,
    family: Dict[str, Any],
    size: int,
    portfolio: str,
    runs_per_graph: int = 2,
    budget: Optional[int] = None,
    neighbor_success: bool = False,
    start_rule: str = "default",
    backend: str = "frozen",
    engine: Optional[str] = None,
    generator: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, List[Dict[str, Any]]]:
    """One graph realisation searched by a whole portfolio.

    ``seed`` is the graph substream seed (what ``measure_search_cost``
    derives as ``substream(seed, graph_index)``); all run seeds fan out
    from it exactly as in the original serial loop, so the decomposed
    grid is draw-for-draw identical to the monolithic one.  ``backend``
    selects the graph form the searches run on (see
    :func:`snapshot_graph`), ``engine`` the cell execution strategy
    (see :data:`ENGINES`) and ``generator`` the construction strategy
    (see :data:`GENERATORS`); all three change wall-clock time, never
    numbers.
    """
    family_obj = build_family(family)
    factories = portfolio_factories(portfolio)
    graph = build_graph_snapshot(
        family_obj, size, seed, backend, generator
    )
    target = family_obj.theorem_target(graph)
    start = choose_start(family_obj, graph, target, start_rule, seed)
    cells = [
        {"algorithm": name, "run_index": run_index}
        for name in factories
        for run_index in range(runs_per_graph)
    ]
    cell_results = _execute_cells(
        graph,
        factories,
        cells,
        default_start=start,
        default_target=target,
        budget=budget,
        neighbor_success=neighbor_success,
        seed=seed,
        engine=engine,
    )
    collected: Dict[str, List[Dict[str, Any]]] = {}
    for cell, result in zip(cells, cell_results):
        collected.setdefault(cell["algorithm"], []).append(result)
    return collected


def batched_search_trial(
    *,
    family: Dict[str, Any],
    size: int,
    portfolio: str,
    cells: List[Dict[str, Any]],
    budget: Optional[int] = None,
    neighbor_success: bool = False,
    start_rule: str = "default",
    backend: str = "frozen",
    engine: Optional[str] = None,
    generator: Optional[str] = None,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """One generated graph snapshot serving an explicit batch of cells.

    The general per-graph trial: instead of re-generating (or
    re-traversing) the topology for every (algorithm, start, target,
    seed) search cell, the graph is built once from ``seed``,
    snapshotted per ``backend``, and every cell runs against the shared
    snapshot.  Cells are dicts with

    * ``"algorithm"`` — a member of ``portfolio`` (required);
    * ``"run_index"`` — repetition index feeding the run-seed substream
      (default 0);
    * ``"start"`` / ``"target"`` — optional per-cell overrides of the
      graph-level defaults (the family's ``start_rule`` resolution and
      theorem target).

    Returns one serialized :class:`~repro.search.metrics.SearchResult`
    per cell, in cell order.  Per-cell run seeds use the same substream
    formula as the serial loops, so a batch containing the portfolio
    grid reproduces :func:`search_cost_graph_trial` bit-for-bit.
    ``engine="ensemble"`` advances each walk-family (algorithm, start,
    target) group of the batch in one lock-step kernel call — same
    seeds, same numbers, same traces (see :data:`ENGINES`); the graph
    itself is built per ``generator`` (see :data:`GENERATORS`).
    """
    family_obj = build_family(family)
    factories = portfolio_factories(portfolio)
    graph = build_graph_snapshot(
        family_obj, size, seed, backend, generator
    )
    target = family_obj.theorem_target(graph)
    start = choose_start(family_obj, graph, target, start_rule, seed)
    return _execute_cells(
        graph,
        factories,
        cells,
        default_start=start,
        default_target=target,
        budget=budget,
        neighbor_success=neighbor_success,
        seed=seed,
        engine=engine,
    )


def _churn_endpoints(family_obj, base, delta):
    """Deterministic (start, target) on a churned overlay.

    The target stays anchored to the theorem window of the *base*
    graph: the newest surviving vertex at or below the static theorem
    target (so "find the newest vertex" keeps its meaning while the
    exact window vertex may have left).  The start is the oldest
    surviving vertex — the searcher's favourable dense-core case,
    mirroring :meth:`GraphFamily.default_start`.
    """
    live = delta.vertices()
    target_ref = family_obj.theorem_target(base)
    target = max(
        (v for v in live if v <= target_ref), default=live[-1]
    )
    start = live[0]
    if start == target and len(live) > 1:
        start = live[1]
    return start, target


def churn_search_trial(
    *,
    family: Dict[str, Any],
    size: int,
    portfolio: str,
    churn_rate: float = 0.1,
    churn_bias: str = "uniform",
    resnapshot_every: int = 0,
    runs_per_graph: int = 2,
    budget: Optional[int] = None,
    neighbor_success: bool = False,
    backend: str = "frozen",
    engine: Optional[str] = None,
    generator: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """One churned graph realisation searched by a whole portfolio.

    Builds the family graph from ``seed`` (honoring ``backend`` /
    ``generator`` exactly like :func:`search_cost_graph_trial`), drives
    ``round(churn_rate * size)`` population-preserving churn steps
    (leave + model-faithful join per step, leaves biased per
    ``churn_bias``) through a :class:`~repro.graphs.churn.ChurnProcess`
    seeded with the trial seed, then runs every portfolio cell against
    the surviving overlay.  Churn draws come from ``churn:*`` named
    substreams and run seeds from algorithm-named ones, so the two
    fan-outs never interact and the whole trial replays identically
    across ``--jobs`` and engines.

    Returns ``{"results": {algorithm: [result dicts]}, "steps": ...,
    "live_vertices": ..., "surviving_edges": ..., "start": ...,
    "target": ...}``.
    """
    if churn_rate < 0:
        raise ExperimentError(
            f"churn_rate must be >= 0, got {churn_rate}"
        )
    if churn_bias not in CHURN_BIASES:
        raise ExperimentError(
            f"churn_bias must be one of {CHURN_BIASES}, "
            f"got {churn_bias!r}"
        )
    family_obj = build_family(family)
    factories = portfolio_factories(portfolio)
    base = build_graph_snapshot(
        family_obj, size, seed, backend, generator
    )
    process = ChurnProcess(
        family_obj,
        base,
        churn_bias=churn_bias,
        resnapshot_every=resnapshot_every,
        seed=seed,
    )
    steps = int(round(churn_rate * base.num_vertices))
    graph = process.run(steps)
    start, target = _churn_endpoints(family_obj, base, graph)
    cells = [
        {"algorithm": name, "run_index": run_index}
        for name in factories
        for run_index in range(runs_per_graph)
    ]
    cell_results = _execute_cells(
        graph,
        factories,
        cells,
        default_start=start,
        default_target=target,
        budget=budget,
        neighbor_success=neighbor_success,
        seed=seed,
        engine=engine,
    )
    collected: Dict[str, List[Dict[str, Any]]] = {}
    for cell, result in zip(cells, cell_results):
        collected.setdefault(cell["algorithm"], []).append(result)
    return {
        "results": collected,
        "steps": steps,
        "live_vertices": graph.num_live_vertices,
        "surviving_edges": graph.num_edges,
        "start": start,
        "target": target,
    }


def churn_survival_trial(
    *,
    family: Dict[str, Any],
    size: int,
    remove_fractions: List[float],
    churn_bias: str = "uniform",
    resnapshot_every: int = 0,
    backend: str = "frozen",
    generator: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """Giant-component survival of one realisation under pure decay.

    Builds the family graph from ``seed``, then removes vertices one
    decay step at a time (no compensating joins, leaves biased per
    ``churn_bias``) and records, at each requested removal fraction,
    the live population, surviving edge count, and the size of the
    largest surviving component.  Fractions are of the *built* graph's
    vertex count, must be non-decreasing, and are clamped so at least
    one vertex survives.
    """
    if any(f < 0 or f > 1 for f in remove_fractions):
        raise ExperimentError(
            "remove_fractions must lie in [0, 1], got "
            f"{remove_fractions}"
        )
    if list(remove_fractions) != sorted(remove_fractions):
        raise ExperimentError(
            "remove_fractions must be non-decreasing, got "
            f"{remove_fractions}"
        )
    if churn_bias not in CHURN_BIASES:
        raise ExperimentError(
            f"churn_bias must be one of {CHURN_BIASES}, "
            f"got {churn_bias!r}"
        )
    family_obj = build_family(family)
    base = build_graph_snapshot(
        family_obj, size, seed, backend, generator
    )
    initial = base.num_vertices
    process = ChurnProcess(
        family_obj,
        base,
        churn_bias=churn_bias,
        resnapshot_every=resnapshot_every,
        seed=seed,
    )
    checkpoints: List[Dict[str, Any]] = []
    for fraction in remove_fractions:
        removals = min(int(round(fraction * initial)), initial - 1)
        while process.steps_taken < removals:
            process.decay_step()
        graph = process.graph
        live = graph.num_live_vertices
        components = connected_components(graph)
        giant = max((len(c) for c in components), default=0)
        checkpoints.append(
            {
                "fraction": fraction,
                "removed": process.steps_taken,
                "live_vertices": live,
                "surviving_edges": graph.num_edges,
                "giant": giant,
                "giant_fraction": giant / live if live else 0.0,
            }
        )
    return {"initial_vertices": initial, "checkpoints": checkpoints}


def trajectory_scaling_trial(
    *,
    family: Dict[str, Any],
    sizes: List[int],
    portfolio: str,
    runs_per_graph: int = 2,
    budget: Optional[int] = None,
    neighbor_success: bool = False,
    start_rule: str = "default",
    backend: str = "frozen",
    engine: Optional[str] = None,
    generator: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, List[Dict[str, Any]]]]:
    """One growth trajectory serving a whole scaling grid of cells.

    Evolves a single realisation of ``family`` to ``max(sizes)`` and
    serves every per-``n`` portfolio cell from the checkpoint snapshot
    at ``n``, so the grid pays one construction pass instead of
    ``Σ nᵢ`` work.  Because checkpoint snapshots are bit-identical to
    independent same-seed builds, the value at key ``str(n)`` equals
    :func:`search_cost_graph_trial` called with ``size=n`` and the same
    ``seed`` — draw for draw (``tests/test_frozen_graph.py`` and the
    regression pins enforce it).  Keys are strings so the value
    round-trips unchanged through the JSON result store.
    """
    generator = fastest_available(generator, GENERATORS)
    family_obj = build_family(family)
    factories = portfolio_factories(portfolio)
    full_graph, marks = family_obj.build_trajectory(
        sizes, seed=seed, generator=generator
    )
    values: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
    for size, graph in trajectory_snapshots(
        full_graph, marks, sizes, backend
    ):
        target = family_obj.theorem_target(graph)
        start = choose_start(
            family_obj, graph, target, start_rule, seed
        )
        cells = [
            {"algorithm": name, "run_index": run_index}
            for name in factories
            for run_index in range(runs_per_graph)
        ]
        cell_results = _execute_cells(
            graph,
            factories,
            cells,
            default_start=start,
            default_target=target,
            budget=budget,
            neighbor_success=neighbor_success,
            seed=seed,
            engine=engine,
        )
        collected: Dict[str, List[Dict[str, Any]]] = {}
        for cell, result in zip(cells, cell_results):
            collected.setdefault(cell["algorithm"], []).append(result)
        values[str(size)] = collected
    return values


def trajectory_slowdown_trial(
    *,
    family: Dict[str, Any],
    sizes: List[int],
    backend: str = "frozen",
    generator: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, int]]:
    """E17's simulation-slowdown cells along one growth trajectory.

    The checkpoint value at key ``str(n)`` is bit-identical to
    :func:`simulation_slowdown_trial` called with ``size=n`` and the
    same ``seed`` (the inner searches are deterministic and the
    snapshot equals the independent build).
    """
    from repro.core.families import theorem_target_for_size

    generator = fastest_available(generator, GENERATORS)
    family_obj = build_family(family)
    full_graph, marks = family_obj.build_trajectory(
        sizes, seed=seed, generator=generator
    )
    values: Dict[str, Dict[str, int]] = {}
    for size, graph in trajectory_snapshots(
        full_graph, marks, sizes, backend
    ):
        target = theorem_target_for_size(size)
        strong_result = run_search(
            HighDegreeStrongSearch(), graph, 1, target, seed=0
        )
        simulated_result = run_search(
            WeakSimulationOfStrong(HighDegreeStrongSearch()),
            graph,
            1,
            target,
            seed=0,
        )
        values[str(size)] = {
            "strong_requests": strong_result.requests,
            "weak_requests": simulated_result.requests,
            "max_degree": max_degree(graph),
        }
    return values


def degree_fit_trial(
    *,
    family: Dict[str, Any],
    n: int,
    backend: str = "frozen",
    seed: int = 0,
) -> Dict[str, Any]:
    """One E6 specimen: build a graph and fit its degree power law."""
    graph = snapshot_graph(build_specimen(family, n, seed), backend)
    degrees = graph.degree_sequence()
    fit = fit_power_law(degrees)
    return {
        "max_degree": max_degree(graph),
        "exponent": fit.exponent,
        "d_min": fit.d_min,
        "ks_distance": fit.ks_distance,
    }


def simulation_slowdown_trial(
    *,
    family: Dict[str, Any],
    size: int,
    backend: str = "frozen",
    generator: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """One E17 instance: strong vs simulated-weak cost and max degree.

    The inner algorithm is deterministic, so the per-instance ratio
    check is exact; the trial just reports the three raw quantities.
    """
    from repro.core.families import theorem_target_for_size

    family_obj = build_family(family)
    graph = build_graph_snapshot(
        family_obj, size, seed, backend, generator
    )
    target = theorem_target_for_size(size)
    strong_result = run_search(
        HighDegreeStrongSearch(), graph, 1, target, seed=0
    )
    simulated_result = run_search(
        WeakSimulationOfStrong(HighDegreeStrongSearch()),
        graph,
        1,
        target,
        seed=0,
    )
    return {
        "strong_requests": strong_result.requests,
        "weak_requests": simulated_result.requests,
        "max_degree": max_degree(graph),
    }
