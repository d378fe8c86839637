"""The searchability measurement engine.

Monte-Carlo estimation of the paper's complexity measure: the expected
number of oracle requests a local algorithm needs to reveal a target's
identity.  The engine iterates (graph realisation) x (algorithm) x
(repetition), keeps the full result lists, and reduces them to
:class:`~repro.search.metrics.SearchCostSummary` rows.

Algorithms are supplied as *factories* ``(graph, target) -> algorithm``
because one portfolio member — the omniscient window baseline — needs
the realised graph and window at construction time.  Plain algorithms
are wrapped with :func:`constant_factory`.

Portfolios may also be passed by *name* (see
:data:`repro.core.trials.PORTFOLIOS`); named portfolios are dispatched
through :mod:`repro.runner` one graph realisation at a time, which is
what enables ``jobs > 1`` worker fan-out and result-store replay while
staying draw-for-draw identical to the serial in-process loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.families import GraphFamily
from repro.errors import ExperimentError
from repro.equivalence.events import equivalence_window
from repro.graphs.frozen import GraphBackend
from repro.rng import substream
from repro.runner import TrialSpec, TrialStore, run_trials, trial_ref
from repro.search.algorithms.base import SearchAlgorithm
from repro.search.algorithms.omniscient import OmniscientWindowSearch
from repro.search.metrics import (
    SearchCostSummary,
    SearchResult,
    summarize_results,
)

__all__ = [
    "AlgorithmFactory",
    "MODES",
    "trajectory_seeds",
    "constant_factory",
    "omniscient_factory",
    "CostMeasurement",
    "measure_search_cost",
    "ScalingMeasurement",
    "measure_scaling",
]

AlgorithmFactory = Callable[[GraphBackend, int], SearchAlgorithm]

#: Valid values of the ``mode`` scaling-sweep parameter.
MODES = ("independent", "trajectory")

#: Substream salt decorrelating per-realisation trajectory seeds from
#: the per-size cell seeds the independent mode derives.
_TRAJECTORY_STREAM = 0x7452414A


def trajectory_seeds(seed: int, num_graphs: int) -> List[int]:
    """One decorrelated seed per coupled realisation of a sweep.

    Trajectory-mode sweeps (and any experiment dispatching trajectory
    trials directly) derive their per-realisation seeds here, so the
    checkpoint at size ``n`` of realisation ``g`` is bit-identical to
    an independent build of size ``n`` with seed
    ``trajectory_seeds(seed, ...)[g]``.
    """
    root = substream(seed, _TRAJECTORY_STREAM)
    return [substream(root, index) for index in range(num_graphs)]


def constant_factory(algorithm: SearchAlgorithm) -> AlgorithmFactory:
    """Wrap an instance-independent algorithm as a factory."""

    def factory(graph: GraphBackend, target: int) -> SearchAlgorithm:
        return algorithm

    return factory


def omniscient_factory() -> AlgorithmFactory:
    """Factory for the Lemma-1 omniscient window baseline.

    The window is the theorem's ``[[target, b]]`` with
    ``b = (target - 1) + ⌊√(target - 2)⌋``, clipped to the graph:
    ``range(target, min(b, n) + 1)`` enumerates exactly the members of
    ``[[target, b]]`` that exist among vertices ``1 .. n`` (both ends
    inclusive).  For the theorem target the clip never engages
    (``theorem_target_for_size`` guarantees ``b <= n``); for
    user-supplied targets near ``n`` it truncates at vertex ``n``
    itself, degenerating to the single-member window ``[[n, n]]`` at
    ``target = n`` — pinned exactly by
    ``tests/test_core.py::TestOmniscientWindowClip``.
    """

    def factory(graph: GraphBackend, target: int) -> SearchAlgorithm:
        _, b = equivalence_window(target)
        window = range(target, min(b, graph.num_vertices) + 1)
        return OmniscientWindowSearch(graph, list(window))

    return factory


@dataclass
class CostMeasurement:
    """Summaries per algorithm for one (family, size) cell.

    Attributes
    ----------
    family_name, size:
        The configuration measured.
    summaries:
        Algorithm name -> aggregated cost summary.
    results:
        Algorithm name -> raw per-run results (kept for bootstrap or
        distribution plots).
    """

    family_name: str
    size: int
    summaries: Dict[str, SearchCostSummary] = field(default_factory=dict)
    results: Dict[str, List[SearchResult]] = field(default_factory=dict)


def _build_cell_specs(
    experiment_id: str,
    family: GraphFamily,
    size: int,
    portfolio: str,
    num_graphs: int,
    runs_per_graph: int,
    budget: Optional[int],
    seed: int,
    neighbor_success: bool,
    start_rule: str,
) -> List[TrialSpec]:
    """One :class:`TrialSpec` per graph realisation of a (size, seed) cell."""
    from repro.core.trials import family_spec, search_cost_graph_trial

    reference = trial_ref(search_cost_graph_trial)
    params = {
        "family": family_spec(family),
        "size": size,
        "portfolio": portfolio,
        "runs_per_graph": runs_per_graph,
        "budget": budget,
        "neighbor_success": neighbor_success,
        "start_rule": start_rule,
    }
    return [
        TrialSpec(
            experiment_id=experiment_id,
            trial=reference,
            params=params,
            seed=substream(seed, graph_index),
        )
        for graph_index in range(num_graphs)
    ]


def _fold_cell(
    family: GraphFamily, size: int, values: Sequence[Dict]
) -> CostMeasurement:
    """Aggregate per-graph trial values back into a cell measurement."""
    from repro.core.trials import result_from_dict

    measurement = CostMeasurement(family_name=family.name, size=size)
    collected: Dict[str, List[SearchResult]] = {}
    for value in values:
        for name, runs in value.items():
            collected.setdefault(name, []).extend(
                result_from_dict(run) for run in runs
            )
    for name, results in collected.items():
        measurement.results[name] = results
        measurement.summaries[name] = summarize_results(results)
    return measurement


def measure_search_cost(
    family: GraphFamily,
    size: int,
    factories: Union[str, Dict[str, AlgorithmFactory]],
    num_graphs: int = 5,
    runs_per_graph: int = 2,
    budget: Optional[int] = None,
    seed: int = 0,
    neighbor_success: bool = False,
    start_rule: str = "default",
    jobs: int = 1,
    store: Optional[TrialStore] = None,
    experiment_id: str = "adhoc",
) -> CostMeasurement:
    """Estimate expected request counts on ``family`` at ``size``.

    Each of the ``num_graphs`` realisations is searched
    ``runs_per_graph`` times by every algorithm (fresh algorithm RNG
    per run, same instance across algorithms, so comparisons are
    paired).  The target follows the family's theorem-faithful rule;
    ``start_rule`` selects the initially discovered vertex:

    * ``'default'`` — the family's choice (vertex 1, the hub-adjacent
      oldest vertex — the searcher-favourable case);
    * ``'random'`` — a uniform vertex different from the target,
      drawn per graph (the paper's "starting from any vertex");
    * ``'newest-other'`` — the vertex just below the equivalence
      window (a young, peripheral start).

    ``factories`` may be a portfolio *name* (see
    :func:`repro.core.trials.portfolio_factories`): named portfolios
    dispatch one trial per graph realisation through the runner, so
    ``jobs`` workers and a result ``store`` apply.  Explicit factory
    dicts (closures) cannot cross process boundaries and always run
    serially in-process; both paths produce identical numbers for the
    same portfolio.

    Each realisation is snapshotted into a read-optimised
    :class:`~repro.graphs.frozen.FrozenGraph` once built, and graphs
    are built and searched by the fastest available arms (see
    :func:`repro.core.trials.fastest_available`).  Like
    ``jobs``/``store``, none of this changes a number, only wall-clock
    time.
    """
    if num_graphs < 1 or runs_per_graph < 1:
        raise ExperimentError(
            "num_graphs and runs_per_graph must be >= 1, got "
            f"{num_graphs}, {runs_per_graph}"
        )
    if start_rule not in ("default", "random", "newest-other"):
        raise ExperimentError(
            f"unknown start_rule {start_rule!r}"
        )

    if isinstance(factories, str):
        specs = _build_cell_specs(
            experiment_id,
            family,
            size,
            factories,
            num_graphs,
            runs_per_graph,
            budget,
            seed,
            neighbor_success,
            start_rule,
        )
        outcomes = run_trials(specs, jobs=jobs, store=store)
        return _fold_cell(
            family, size, [outcome.value for outcome in outcomes]
        )

    if jobs != 1 or store is not None:
        raise ExperimentError(
            "jobs/store require a named portfolio (factory dicts hold "
            "closures and cannot be dispatched to workers); pass a "
            "portfolio name from repro.core.trials.PORTFOLIOS"
        )

    from repro.core.trials import (
        build_graph_snapshot,
        choose_start,
        portfolio_grid,
    )

    values = []
    for graph_index in range(num_graphs):
        graph_seed = substream(seed, graph_index)
        graph = build_graph_snapshot(family, size, graph_seed)
        target = family.theorem_target(graph)
        values.append(
            portfolio_grid(
                graph,
                factories,
                runs_per_graph,
                start=choose_start(
                    family, graph, target, start_rule, graph_seed
                ),
                target=target,
                budget=budget,
                neighbor_success=neighbor_success,
                seed=graph_seed,
            )
        )
    return _fold_cell(family, size, values)


@dataclass
class ScalingMeasurement:
    """Cost measurements across a size sweep, with exponent fits.

    Attributes
    ----------
    family_name:
        The family swept.
    sizes:
        The sweep grid.
    cells:
        Size -> :class:`CostMeasurement`.
    """

    family_name: str
    sizes: List[int]
    cells: Dict[int, CostMeasurement] = field(default_factory=dict)

    def mean_requests(self, algorithm: str) -> List[float]:
        """Mean request counts of ``algorithm`` along the size sweep."""
        return [
            self.cells[size].summaries[algorithm].mean_requests
            for size in self.sizes
        ]

    def median_requests(self, algorithm: str) -> List[float]:
        """Median request counts — robust to heavy-tailed run costs."""
        return [
            self.cells[size].summaries[algorithm].median_requests
            for size in self.sizes
        ]

    def fitted_exponent(
        self, algorithm: str, statistic: str = "mean"
    ) -> float:
        """Empirical scaling exponent of ``algorithm``'s cost.

        ``statistic`` selects the per-size aggregate to fit: ``'mean'``
        (the paper's expected-cost measure, default) or ``'median'``
        (robust when the cost distribution is heavy-tailed, as for
        degree-greedy search on configuration graphs in E7).
        """
        from repro.analysis.scaling import fit_power_scaling

        if statistic == "mean":
            values = self.mean_requests(algorithm)
        elif statistic == "median":
            values = self.median_requests(algorithm)
        else:
            raise ExperimentError(
                f"unknown statistic {statistic!r} "
                "(expected 'mean' or 'median')"
            )
        # A zero aggregate (instant success at a tiny size) would break
        # the log fit; clamp to one request.
        values = [max(v, 1.0) for v in values]
        return fit_power_scaling(
            [float(s) for s in self.sizes], values
        ).exponent


def measure_scaling(
    family: GraphFamily,
    sizes: Sequence[int],
    factories: Union[str, Dict[str, AlgorithmFactory]],
    num_graphs: int = 5,
    runs_per_graph: int = 2,
    seed: int = 0,
    neighbor_success: bool = False,
    start_rule: str = "default",
    jobs: int = 1,
    store: Optional[TrialStore] = None,
    experiment_id: str = "adhoc",
    mode: str = "independent",
) -> ScalingMeasurement:
    """Run :func:`measure_search_cost` across a size grid.

    For a named portfolio the *entire* grid — every (size, graph)
    realisation — is dispatched in one runner batch, so ``jobs``
    workers stay busy across size cells rather than draining one cell
    at a time.  Per-cell seeds are ``substream(seed, size_index)``
    either way, so the batch is numerically identical to the loop.

    ``mode`` selects how the per-size realisations relate:

    * ``'independent'`` (default) — every (size, graph) cell evolves a
      fresh realisation from scratch, exactly as before (all existing
      pins and result-store entries keep replaying);
    * ``'trajectory'`` — each of the ``num_graphs`` realisations is
      evolved **once** to ``max(sizes)`` and checkpoint-snapshotted at
      every grid size, so the whole sweep pays one construction pass
      per realisation instead of ``Σ nᵢ`` work.  Checkpoint snapshots
      are bit-identical to independent same-seed builds, so each size
      cell is a faithful sample of the same per-size distribution; the
      sizes of one realisation are *coupled* (prefixes of one growth
      process — the regime of searches along an evolving network),
      which is also what makes the mode a pure wall-clock win.
      Requires a prefix-stable family (the evolving models; the
      configuration model is rejected).
    """
    ordered = sorted(set(sizes))
    if len(ordered) < 2:
        raise ExperimentError(
            f"need at least 2 sizes for a scaling sweep, got {ordered}"
        )
    if num_graphs < 1 or runs_per_graph < 1:
        raise ExperimentError(
            "num_graphs and runs_per_graph must be >= 1, got "
            f"{num_graphs}, {runs_per_graph}"
        )
    if start_rule not in ("default", "random", "newest-other"):
        raise ExperimentError(
            f"unknown start_rule {start_rule!r}"
        )
    if mode not in MODES:
        raise ExperimentError(
            f"unknown mode {mode!r}; valid: {', '.join(MODES)}"
        )
    measurement = ScalingMeasurement(
        family_name=family.name, sizes=ordered
    )

    if mode == "trajectory":
        return _measure_scaling_trajectory(
            measurement,
            family,
            ordered,
            factories,
            num_graphs,
            runs_per_graph,
            seed,
            neighbor_success,
            start_rule,
            jobs,
            store,
            experiment_id,
        )

    if isinstance(factories, str):
        grid_specs: List[TrialSpec] = []
        offsets = []
        for index, size in enumerate(ordered):
            cell_specs = _build_cell_specs(
                experiment_id,
                family,
                size,
                factories,
                num_graphs,
                runs_per_graph,
                None,
                substream(seed, index),
                neighbor_success,
                start_rule,
            )
            offsets.append((size, len(grid_specs), len(cell_specs)))
            grid_specs.extend(cell_specs)
        outcomes = run_trials(grid_specs, jobs=jobs, store=store)
        for size, offset, count in offsets:
            measurement.cells[size] = _fold_cell(
                family,
                size,
                [o.value for o in outcomes[offset:offset + count]],
            )
        return measurement

    for index, size in enumerate(ordered):
        measurement.cells[size] = measure_search_cost(
            family,
            size,
            factories,
            num_graphs=num_graphs,
            runs_per_graph=runs_per_graph,
            seed=substream(seed, index),
            neighbor_success=neighbor_success,
            start_rule=start_rule,
            jobs=jobs,
            store=store,
            experiment_id=experiment_id,
        )
    return measurement


def _measure_scaling_trajectory(
    measurement: ScalingMeasurement,
    family: GraphFamily,
    ordered: List[int],
    factories: Union[str, Dict[str, AlgorithmFactory]],
    num_graphs: int,
    runs_per_graph: int,
    seed: int,
    neighbor_success: bool,
    start_rule: str,
    jobs: int,
    store: Optional[TrialStore],
    experiment_id: str,
) -> ScalingMeasurement:
    """The ``mode='trajectory'`` body of :func:`measure_scaling`.

    One realisation per ``num_graphs``, evolved to ``max(ordered)``
    and checkpoint-snapshotted at every size.  Each checkpoint's cells
    reproduce :func:`repro.core.trials.search_cost_graph_trial` with
    ``size=n`` and the realisation's seed bit-for-bit.
    """
    graph_seeds = trajectory_seeds(seed, num_graphs)

    if isinstance(factories, str):
        from repro.core.trials import (
            family_spec,
            trajectory_scaling_trial,
        )
        from repro.runner import (
            split_trajectory_values,
            trajectory_specs,
        )

        params = {
            "family": family_spec(family),
            "portfolio": factories,
            "runs_per_graph": runs_per_graph,
            "budget": None,
            "neighbor_success": neighbor_success,
            "start_rule": start_rule,
        }
        specs = trajectory_specs(
            experiment_id,
            trial_ref(trajectory_scaling_trial),
            params,
            ordered,
            graph_seeds,
        )
        outcomes = run_trials(specs, jobs=jobs, store=store)
        per_size = split_trajectory_values(outcomes, ordered)
        for size in ordered:
            measurement.cells[size] = _fold_cell(
                family, size, per_size[size]
            )
        return measurement

    if jobs != 1 or store is not None:
        raise ExperimentError(
            "jobs/store require a named portfolio (factory dicts hold "
            "closures and cannot be dispatched to workers); pass a "
            "portfolio name from repro.core.trials.PORTFOLIOS"
        )

    from repro.core.trials import (
        GENERATORS,
        choose_start,
        fastest_available,
        portfolio_grid,
        trajectory_snapshots,
    )

    generator = fastest_available(None, GENERATORS)
    per_size: Dict[int, List[Dict]] = {size: [] for size in ordered}
    for graph_seed in graph_seeds:
        full_graph, marks = family.build_trajectory(
            ordered, seed=graph_seed, generator=generator
        )
        for size, graph in trajectory_snapshots(
            full_graph, marks, ordered
        ):
            target = family.theorem_target(graph)
            per_size[size].append(
                portfolio_grid(
                    graph,
                    factories,
                    runs_per_graph,
                    start=choose_start(
                        family, graph, target, start_rule, graph_seed
                    ),
                    target=target,
                    budget=None,
                    neighbor_success=neighbor_success,
                    seed=graph_seed,
                )
            )
    for size in ordered:
        measurement.cells[size] = _fold_cell(family, size, per_size[size])
    return measurement
