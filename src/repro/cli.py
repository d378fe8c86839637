"""Command-line interface: run named experiments and print their tables.

Usage::

    repro list [--markdown]
    repro run E1 [--seed 7] [--json out.json] [--quick] [--plot]
    repro run E1 --jobs 8 --cache-dir .repro-cache
    repro run E20 --set sizes=200,400 --set num_graphs=2
    repro run E1,E3,E20 --quick
    repro run all --json-dir results/ [--quick]
    repro corpus build corpus/ --model mori --sizes 1000,2000
    repro corpus list corpus/
    repro corpus verify corpus/
    repro serve --model mori --sizes 500 --seeds 1,2 --port 8642
    repro serve --corpus corpus/ --workers 4 --port-file serve.port
    repro serve --sizes 200 --smoke
    repro store stat .repro-cache
    repro store compact .repro-cache
    repro compare old.json new.json [--rtol 0.25]

(Equivalently ``python -m repro ...``.)  The CLI is a thin shell over
the experiment registry (:mod:`repro.core.registry`); every number it
prints is regenerable from the seed it echoes.

``repro list`` prints the registry's capability matrix — which of the
execution axes (``jobs``, ``cache``, ``mode``) each experiment
declares; ``--markdown`` emits the same
index as a markdown table (the README's experiment index is generated
from it).  ``repro run`` accepts one id, a comma-separated list, or
``all``; ``--set key=value`` overrides any declared experiment
parameter with typed coercion (``--set sizes=200,400``), so no
experiment needs bespoke CLI flags.

``--jobs`` fans runner-dispatched experiments out over worker
processes and ``--cache-dir`` replays completed trials from a
persistent store; neither changes any printed number (trial seeds are
substream-derived, so parallel output is bit-identical to serial).
The store is one SQLite database per cache directory
(``DIR/trials.sqlite``); cached runs report their hit/miss tally
afterwards.  ``repro store stat/compact`` inspect a cache directory
and drop entries stale under the current code; neither creates a
store that is not there (see :mod:`repro.runner.store`).
``--mode trajectory`` serves scaling sweeps from checkpoint snapshots
of shared growth trajectories (one construction pass per sweep).
Graphs are built and searched by the fast arms: the lock-step ensemble
kernel and the batched :mod:`repro.graphs.fastgen` builders, with
numbers bit-identical to the serial reference arms
(:func:`repro.core.trials.fastest_available`); every realisation is
searched as a frozen CSR snapshot.
Whether a flag applies is read off the experiment's *declared
capabilities*, not guessed from signatures: requesting an axis an
experiment does not declare emits a warning on stderr instead of
silently ignoring it.

``repro corpus build/list/verify`` pre-generates, enumerates and
digest-checks a memory-mapped on-disk corpus of graph snapshots
(:mod:`repro.graphs.corpus`), the graph catalog ``repro serve
--corpus`` serves; ``repro run`` builds its graphs in memory.

``repro serve`` runs the long-lived search daemon
(:mod:`repro.service`): graphs load once, publish into shared memory,
and the daemon answers ``POST /search`` queries bit-identically to the
batch path (same ``run_substream`` seed derivation): short walks in its
HTTP threads, long ones in a worker pool.  ``--smoke``
is the self-test mode CI runs: burst concurrent queries, verify
batch-path identity and clean shm teardown, exit.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

import repro.core.experiments  # noqa: F401 — registers E1..E22
from repro.core.registry import (
    CAPABILITY_PARAMS,
    REGISTRY,
    ExperimentSpec,
)
from repro.core.results import save_result
from repro.errors import ExperimentError, ReproError

__all__ = [
    "build_parser",
    "main",
    "format_listing",
    "QUICK_OVERRIDES",
]

#: Reduced parameter grids for `repro run --quick`: same code paths,
#: seconds instead of minutes.  Keys absent here run their defaults.
QUICK_OVERRIDES = {
    "E1": {"sizes": (60, 120, 240), "num_graphs": 2, "runs_per_graph": 1},
    "E2": {"sizes": (60, 120, 240), "num_graphs": 2, "runs_per_graph": 1},
    "E3": {"sizes": (60, 120), "num_graphs": 2, "runs_per_graph": 1},
    "E4": {"a_values": (10, 50), "p_values": (0.25, 0.75),
           "num_samples": 300},
    "E5": {"n": 3000, "p_values": (0.25, 0.75), "num_trees": 2},
    "E6": {"n": 2000},
    "E7": {"sizes": (200, 400), "num_graphs": 2, "runs_per_graph": 1},
    "E8": {"sides": (8, 12), "r_values": (0.0, 2.0, 4.0),
           "pairs_per_grid": 8},
    "E9": {"sizes": (100, 200), "num_graphs": 2},
    "E10": {"n": 6},
    "E11": {"sizes": (100, 200), "num_graphs": 2, "runs_per_graph": 1},
    "E12": {"n": 800, "replica_counts": (0, 16), "num_queries": 10},
    "E13": {"sizes": (60, 120), "p_values": (0.0, 0.5, 1.0),
            "num_graphs": 2},
    "E14": {"sizes": (60, 120), "m_values": (1, 2), "num_graphs": 2},
    "E15": {"sizes": (60, 120), "num_samples": 80},
    "E16": {"n": 1500},
    "E17": {"sizes": (100, 200), "num_graphs": 2},
    "E18": {"sizes": (100, 200), "num_graphs": 2, "runs_per_graph": 1},
    "E19": {"sizes": (100, 200), "num_graphs": 2, "runs_per_graph": 1},
    "E20": {"sizes": (60, 120), "num_graphs": 2, "runs_per_graph": 1},
    "E21": {"size": 120, "churn_rates": (0.0, 0.1), "num_graphs": 2,
            "runs_per_graph": 1},
    "E22": {"size": 150, "remove_fractions": (0.2, 0.6),
            "num_graphs": 2},
}


def _positive_int(text: str) -> int:
    """argparse type for ``--jobs``: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1, got {value}"
        )
    return value


def _set_pair(text: str) -> Tuple[str, str]:
    """argparse type for ``--set``: a ``key=value`` pair."""
    key, separator, value = text.partition("=")
    if not separator or not key.strip():
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {text!r}"
        )
    return key.strip(), value


def _int_list(text: str) -> Tuple[int, ...]:
    """argparse type for ``--sizes``/``--seeds``: comma-separated ints."""
    try:
        values = tuple(
            int(token) for token in text.split(",") if token.strip()
        )
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected at least one integer, got {text!r}"
        )
    return values


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction experiments for 'Non-Searchability of "
            "Random Scale-Free Graphs' (Duchon, Eggemann, Hanusse, "
            "PODC 2007)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    listing = subparsers.add_parser(
        "list",
        help="list registered experiments and their capability matrix",
    )
    listing.add_argument(
        "--markdown",
        action="store_true",
        help="emit the index as a markdown table (README source)",
    )

    run = subparsers.add_parser(
        "run",
        help="run one experiment, a comma-separated list, or 'all'",
    )
    run.add_argument(
        "experiment",
        help="experiment id (E1..E22), comma-separated ids, or 'all'",
    )
    run.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the experiment's default seed",
    )
    run.add_argument(
        "--set",
        dest="overrides",
        type=_set_pair,
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "override any declared experiment parameter, with typed "
            "coercion per the registry schema (repeatable; e.g. "
            "--set sizes=200,400 --set num_graphs=2)"
        ),
    )
    run.add_argument(
        "--json",
        default=None,
        help="also write the result record to this JSON file",
    )
    run.add_argument(
        "--json-dir",
        default=None,
        help=(
            "write one JSON record per experiment here, named "
            "<id>.json (e.g. e10.json)"
        ),
    )
    run.add_argument(
        "--quick",
        action="store_true",
        help="use reduced parameter grids (seconds instead of minutes)",
    )
    run.add_argument(
        "--plot",
        action="store_true",
        help="render scaling tables as ASCII log-log plots",
    )
    run.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help=(
            "worker processes for runner-dispatched experiments "
            "(default 1; results are identical at any value)"
        ),
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "persistent trial-result store; re-runs replay completed "
            "trials instead of recomputing them"
        ),
    )
    run.add_argument(
        "--mode",
        choices=("independent", "trajectory"),
        default=None,
        help=(
            "scaling-sweep construction mode: 'independent' (default) "
            "evolves a fresh realisation per size cell; 'trajectory' "
            "evolves each realisation once to the largest size and "
            "serves every size from bit-identical checkpoint "
            "snapshots (one construction pass per sweep)"
        ),
    )

    corpus = subparsers.add_parser(
        "corpus",
        help="manage an on-disk corpus of generated graph snapshots",
    )
    corpus_commands = corpus.add_subparsers(
        dest="corpus_command", required=True
    )
    corpus_build = corpus_commands.add_parser(
        "build",
        help="pre-generate snapshots for a (model, sizes, seeds) grid",
    )
    corpus_build.add_argument(
        "dir", help="corpus directory (created if missing)"
    )
    corpus_build.add_argument(
        "--model",
        choices=("mori", "cooper-frieze", "ba"),
        default="mori",
        help="graph family to generate (default mori)",
    )
    corpus_build.add_argument(
        "--p",
        type=float,
        default=0.5,
        help="Móri attachment parameter (mori; default 0.5)",
    )
    corpus_build.add_argument(
        "--m",
        type=int,
        default=1,
        help="edges per arriving vertex (mori/ba; default 1)",
    )
    corpus_build.add_argument(
        "--alpha",
        type=float,
        default=0.5,
        help="Cooper-Frieze NEW-step probability (default 0.5)",
    )
    corpus_build.add_argument(
        "--sizes",
        type=_int_list,
        required=True,
        help="comma-separated graph sizes to generate",
    )
    corpus_build.add_argument(
        "--seeds",
        type=_int_list,
        default=(0,),
        help="comma-separated graph seeds (default 0)",
    )
    corpus_list = corpus_commands.add_parser(
        "list", help="enumerate the entries of a corpus directory"
    )
    corpus_list.add_argument("dir", help="corpus directory")
    corpus_verify = corpus_commands.add_parser(
        "verify",
        help=(
            "digest-check every corpus entry; non-zero exit on any "
            "corruption"
        ),
    )
    corpus_verify.add_argument("dir", help="corpus directory")

    serve = subparsers.add_parser(
        "serve",
        help=(
            "run the long-lived search daemon over shared-memory "
            "graph snapshots"
        ),
    )
    serve.add_argument(
        "--corpus",
        default=None,
        help=(
            "serve every snapshot of this corpus directory; omit to "
            "generate a grid from --model/--sizes/--seeds"
        ),
    )
    serve.add_argument(
        "--model",
        choices=("mori", "cooper-frieze", "ba"),
        default="mori",
        help="graph family to generate and serve (default mori)",
    )
    serve.add_argument(
        "--p", type=float, default=0.5,
        help="Móri attachment parameter (mori; default 0.5)",
    )
    serve.add_argument(
        "--m", type=int, default=1,
        help="edges per arriving vertex (mori/ba; default 1)",
    )
    serve.add_argument(
        "--alpha", type=float, default=0.5,
        help="Cooper-Frieze NEW-step probability (default 0.5)",
    )
    serve.add_argument(
        "--sizes", type=_int_list, default=(200,),
        help="comma-separated graph sizes to serve (default 200)",
    )
    serve.add_argument(
        "--seeds", type=_int_list, default=(0,),
        help="comma-separated graph seeds (default 0)",
    )
    serve.add_argument(
        "--generator",
        choices=("serial", "vectorized"),
        default=None,
        help=(
            "construction strategy for generated graphs (default: "
            "vectorized)"
        ),
    )
    serve.add_argument(
        "--portfolio", default="adamic",
        help="served algorithm portfolio (default adamic)",
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=2,
        help="search worker processes (default 2)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port; 0 picks a free one (default 0)",
    )
    serve.add_argument(
        "--max-queue", type=_positive_int, default=1024,
        help=(
            "bound on pool calls in flight (one per query sent to "
            "the pool, submitted but not yet answered); beyond it new "
            "queries are shed with HTTP 429 (default 1024)"
        ),
    )
    serve.add_argument(
        "--query-timeout", type=float, default=30.0, metavar="S",
        help=(
            "seconds a query may wait for its answer before a "
            "structured HTTP 503 (default 30)"
        ),
    )
    serve.add_argument(
        "--cache-size", type=int, default=2048,
        help=(
            "hot-cell answer cache capacity in entries; repeated "
            "queries skip the search (0 disables; default 2048)"
        ),
    )
    serve.add_argument(
        "--cache-store", default=None, metavar="DIR",
        help=(
            "write served answers through to a trial store at this "
            "directory (they persist as replay-addressable trial "
            "records and pre-warm later daemons)"
        ),
    )
    serve.add_argument(
        "--stats-interval", type=float, default=0.0, metavar="S",
        help=(
            "print a one-line serving summary every S seconds "
            "(0 disables; default 0)"
        ),
    )
    serve.add_argument(
        "--port-file", default=None,
        help="write the bound port to this file once serving",
    )
    serve.add_argument(
        "--smoke", action="store_true",
        help=(
            "self-test mode: serve, burst concurrent queries, verify "
            "bit-identity against the batch path and clean shm "
            "teardown, then exit"
        ),
    )
    serve.add_argument(
        "--smoke-queries", type=_positive_int, default=24,
        help="queries the smoke burst issues (default 24)",
    )
    serve.add_argument(
        "--smoke-clients", type=_positive_int, default=4,
        help="concurrent smoke clients (default 4)",
    )

    store = subparsers.add_parser(
        "store",
        help="inspect or compact a trial-result cache",
    )
    store_commands = store.add_subparsers(
        dest="store_command", required=True
    )
    store_stat = store_commands.add_parser(
        "stat",
        help=(
            "entry/staleness/size/inode counts of a cache directory's "
            "store (and any json-files tree it still holds)"
        ),
    )
    store_stat.add_argument("dir", help="cache directory")
    store_compact = store_commands.add_parser(
        "compact",
        help=(
            "drop entries stale under the current code and reclaim "
            "space"
        ),
    )
    store_compact.add_argument("dir", help="cache directory")

    compare = subparsers.add_parser(
        "compare",
        help="diff two experiment JSON records within tolerance",
    )
    compare.add_argument("old", help="reference record (JSON)")
    compare.add_argument("new", help="re-run record (JSON)")
    compare.add_argument(
        "--rtol",
        type=float,
        default=0.25,
        help="relative tolerance for derived metrics (default 0.25)",
    )
    return parser


def format_listing(markdown: bool = False) -> str:
    """The registry index: one line (or table row) per experiment.

    The plain form is ``repro list``'s capability matrix; the markdown
    form is the README experiment index's source of truth (``repro
    list --markdown``).
    """
    specs = REGISTRY.specs()
    if markdown:
        lines = [
            "| id | experiment | parameters | capabilities |",
            "|---|---|---|---|",
        ]
        for spec in specs:
            parameters = ", ".join(
                f"`{param.name}`" for param in spec.params
            )
            capabilities = ", ".join(spec.capabilities) or "—"
            lines.append(
                f"| `{spec.id}` | {spec.title} | {parameters} "
                f"| {capabilities} |"
            )
        return "\n".join(lines)
    width = max(
        (len(",".join(spec.capabilities)) for spec in specs),
        default=0,
    )
    lines = []
    for spec in specs:
        capabilities = ",".join(spec.capabilities) or "-"
        lines.append(
            f"{spec.id:>4}  {capabilities:<{width}}  {spec.title}"
        )
    return "\n".join(lines)


def _plot_scaling_tables(result) -> None:
    """Render any (n, algorithm, mean requests) table as a log-log plot."""
    from repro.core.plotting import render_loglog

    for table in result.tables:
        columns = list(table.columns)
        if not {"n", "algorithm", "mean requests"} <= set(columns):
            continue
        n_index = columns.index("n")
        algo_index = columns.index("algorithm")
        mean_index = columns.index("mean requests")
        curves = {}
        for row in table.rows:
            xs, ys = curves.setdefault(row[algo_index], ([], []))
            value = float(row[mean_index])
            if value > 0:
                xs.append(float(row[n_index]))
                ys.append(value)
        curves = {name: c for name, c in curves.items() if c[0]}
        if curves:
            print()
            print(render_loglog(table.title, curves))


def _warn_ignored(experiment_id: str, flag: str, parameter: str) -> None:
    """Tell the user a CLI knob has no effect on this experiment.

    Silently dropping ``--cache-dir`` (or ``--jobs``/``--mode``/
    ``--seed``/``--set``) would let users believe results were cached,
    parallelised or reseeded when the experiment never declared the
    capability (or parameter).
    """
    print(
        f"warning: {flag} has no effect on {experiment_id} "
        f"(this experiment takes no {parameter!r} parameter); "
        "the flag was ignored",
        file=sys.stderr,
    )


def _context_kwargs(spec: ExperimentSpec, args) -> Dict[str, Any]:
    """Map requested capability flags onto ``spec``'s declarations.

    Declared capabilities forward their value to the execution
    context; requesting an undeclared one warns on stderr.  ``None``
    means the flag was not given at all; an explicitly typed value —
    even a default like ``--jobs 1`` or ``--mode independent`` — is
    forwarded when declared (E19, for one, rejects independent mode
    rather than silently running its trajectory default).  Each
    capability's flag is its keyword parameter spelled as an option
    (``cache_dir`` -> ``--cache-dir``).
    """
    kwargs: Dict[str, Any] = {}
    for capability, (parameter, _) in CAPABILITY_PARAMS.items():
        value = getattr(args, parameter)
        if value is None:
            continue
        if capability in spec.capabilities:
            kwargs[parameter] = value
        else:
            flag = "--" + parameter.replace("_", "-")
            _warn_ignored(spec.id, f"{flag} {value}", parameter)
    return kwargs


def _resolve_overrides(
    spec: ExperimentSpec,
    args,
    strict: bool,
) -> Dict[str, Any]:
    """Quick grids + ``--seed`` + typed ``--set`` pairs for one spec.

    ``strict`` (single-experiment runs) turns an unknown ``--set`` key
    into an :class:`ExperimentError`; multi-experiment runs warn and
    skip instead, so ``repro run all --set sizes=...`` downsizes every
    experiment that has a ``sizes`` parameter without aborting on the
    ones that do not.
    """
    overrides: Dict[str, Any] = {}
    if args.quick:
        overrides.update(
            {
                key: value
                for key, value in QUICK_OVERRIDES.get(
                    spec.id, {}
                ).items()
                if key in spec.param_names
            }
        )
    if args.seed is not None:
        if "seed" in spec.param_names:
            overrides["seed"] = args.seed
        else:
            _warn_ignored(spec.id, f"--seed {args.seed}", "seed")
    for key, text in args.overrides:
        if key not in spec.param_names:
            if strict:
                raise ExperimentError(
                    f"{spec.id} takes no parameter {key!r}; valid: "
                    f"{', '.join(spec.param_names) or '(none)'}"
                )
            _warn_ignored(spec.id, f"--set {key}={text}", key)
            continue
        overrides[key] = spec.param(key).coerce(text)
    return overrides


def _run_one(
    spec: ExperimentSpec,
    args,
    json_paths: List[str],
    strict: bool,
) -> None:
    """Run one registered spec with the CLI's overrides and context."""
    overrides = _resolve_overrides(spec, args, strict)
    context_kwargs = _context_kwargs(spec, args)
    result = spec.run(overrides, **context_kwargs)
    print(result.format())
    if args.plot:
        _plot_scaling_tables(result)
    print()
    for json_path in json_paths:
        save_result(result, json_path)
        print(f"wrote {json_path}")


def _requested_ids(text: str) -> Optional[List[str]]:
    """Parse the run target: 'all', one id, or a comma-separated list.

    Returns the ids in request order (registry order for 'all'), or
    ``None`` when any id is unknown — the caller prints the registry's
    id list and exits non-zero (satisfying "unknown experiment ids
    never traceback").
    """
    if text.strip().lower() == "all":
        return REGISTRY.ids()
    ids = [
        token.strip().upper()
        for token in text.split(",")
        if token.strip()
    ]
    if not ids or any(i not in REGISTRY for i in ids):
        return None
    return ids


def _print_store_stats(args) -> None:
    """Report this run's store hit/miss tally (if a store is active).

    The tally is process-local, so with ``--jobs`` > 1 only the
    parent's replay scan is counted (which is where all lookups happen
    — workers only execute misses).
    """
    from repro.runner import store_stats

    if not args.cache_dir:
        return
    stats = store_stats()
    print(f"store: {stats['hits']} hits, {stats['misses']} misses")


def _store_main(args) -> int:
    """The ``repro store stat/compact`` commands."""
    from repro.runner.store import TrialStore, json_tree_files

    store = TrialStore(args.dir)
    if args.store_command == "stat":
        tree = json_tree_files(args.dir)
        if tree:
            print(
                f"{args.dir}: json-files tree of {tree} files, "
                "not read (delete or move it away)"
            )
        stats = store.stat()
        if stats is not None:
            print(
                f"{store.db_path}: {stats['entries']} entries, "
                f"{stats['stale']} stale, {stats['bytes']} bytes, "
                f"{stats['inodes']} inodes"
            )
        elif not tree:
            print(f"no trial store in {args.dir}")
        return 0

    removed = store.compact()
    if removed is None:
        print(f"no trial store in {args.dir}")
    else:
        print(f"{store.db_path}: {removed} stale removed")
    return 0


def _corpus_family(args):
    """The graph family a ``repro corpus build`` grid generates."""
    from repro.core.families import (
        BarabasiAlbertFamily,
        CooperFriezeFamily,
        MoriFamily,
    )
    from repro.graphs.cooper_frieze import CooperFriezeParams

    if args.model == "mori":
        return MoriFamily(p=args.p, m=args.m)
    if args.model == "ba":
        return BarabasiAlbertFamily(m=args.m)
    return CooperFriezeFamily(
        params=CooperFriezeParams(alpha=args.alpha)
    )


def _corpus_main(args) -> int:
    """The ``repro corpus build/list/verify`` commands."""
    from repro.graphs.corpus import CORPUS_SCHEMA, GraphCorpus

    corpus = GraphCorpus(args.dir)

    if args.corpus_command == "build":
        from repro.core.trials import (
            GENERATORS,
            family_spec,
            fastest_available,
        )

        generator = fastest_available(None, GENERATORS)
        family_obj = _corpus_family(args)
        spec = family_spec(family_obj)
        built = 0
        present = 0
        for size in args.sizes:
            for seed in args.seeds:
                if corpus.get(spec, size, seed) is not None:
                    present += 1
                    continue
                snapshot = family_obj.build_frozen(
                    size, seed=seed, generator=generator
                )
                corpus.put(
                    spec, size, seed, snapshot, generator=generator
                )
                built += 1
        print(
            f"corpus build: {built} built, {present} already "
            f"present in {args.dir} ({family_obj.name})"
        )
        return 0

    if args.corpus_command == "list":
        count = 0
        for path, manifest in corpus.entries():
            count += 1
            if manifest.get("schema") == CORPUS_SCHEMA:
                print(
                    f"{manifest['model']:>13}  n={manifest['n']:<8} "
                    f"seed={manifest['seed']:<4} "
                    f"edges={manifest['num_edges']:<8} "
                    f"generator={manifest.get('generator', '?')}  "
                    f"{path}"
                )
            else:
                print(f"  (unreadable)  {path}")
        print(f"{count} entries in {args.dir}")
        return 0

    report = corpus.verify()
    failures = 0
    for path, ok, message in report:
        if ok:
            print(f"ok    {path}  ({message})")
        else:
            failures += 1
            print(f"FAIL  {path}  ({message})", file=sys.stderr)
    print(
        f"corpus verify: {len(report) - failures}/{len(report)} "
        "entries ok"
    )
    return 1 if failures else 0


def _serve_entries(args):
    """The graph catalog ``repro serve`` publishes."""
    from repro.service import build_grid_entries, load_corpus_entries

    if args.corpus:
        entries = load_corpus_entries(args.corpus)
        if not entries:
            raise ExperimentError(
                f"corpus directory {args.corpus!r} has no readable "
                "entries"
            )
        return entries
    return build_grid_entries(
        _corpus_family(args), args.sizes, args.seeds,
        generator=args.generator,
    )


def _serve_smoke(service, args) -> int:
    """The ``repro serve --smoke`` self-test (the CI serve smoke).

    Bursts concurrent queries at the just-started daemon (each miss
    answered inline or as one pool call), replays the same cells
    through :func:`repro.core.trials.batched_search_trial`, and demands
    byte-identical answers; re-issues the same burst so
    the answer cache serves it and demands identity again; checks the
    ``/stats`` route accounted for both passes, with one inline or
    spilled answer per cache miss; then tears the daemon
    down and proves every published segment is actually gone (attach
    must raise).  Exit 0 only if all of it holds.
    """
    from repro.core.trials import batched_search_trial
    from repro.graphs.shm import attach_graph
    from repro.service.client import ServiceClient, run_load
    from repro.service.loadgen import build_queries
    from repro.service.core import portfolio_algorithms

    graphs = service.handle_graphs()
    shm_names = [graph["shm"] for graph in graphs]
    queries = build_queries(
        graphs,
        list(portfolio_algorithms(service.portfolio)),
        args.smoke_queries,
    )
    responses, stats = run_load(
        service.host, service.port, queries,
        clients=args.smoke_clients,
    )
    # Cache-warm pass: the same burst again must come back identical
    # (and, with the cache on, mostly from the cache).
    warm_responses, warm_stats = run_load(
        service.host, service.port, queries,
        clients=args.smoke_clients,
    )
    warm_mismatches = sum(
        1 for first, second in zip(responses, warm_responses)
        if first != second
    )
    with ServiceClient(service.host, service.port) as probe:
        snapshot = probe.stats()
    search_stats = snapshot["routes"].get("search", {})
    stats_problems = []
    if search_stats.get("count", 0) < 2 * len(queries):
        stats_problems.append(
            f"/stats saw {search_stats.get('count', 0)} search "
            f"requests, expected >= {2 * len(queries)}"
        )
    if (
        service.cache.capacity > 0
        and snapshot["cache"]["hits"] < len(queries)
    ):
        stats_problems.append(
            f"/stats saw {snapshot['cache']['hits']} cache hits, "
            f"expected >= {len(queries)} from the warm pass"
        )
    batches = snapshot["batches"]
    answered = batches["inline"] + batches["spilled"]
    caching = service.cache.capacity > 0 or service.cache_store is not None
    misses = (
        snapshot["cache"]["misses"] if caching
        else search_stats.get("count", 0)
    )
    if answered != misses:
        stats_problems.append(
            f"/stats counted {batches['inline']} inline + "
            f"{batches['spilled']} spilled answers for {misses} "
            "cache misses"
        )
    by_graph: Dict[str, List[int]] = {}
    for index, query in enumerate(queries):
        by_graph.setdefault(query["graph"], []).append(index)
    mismatches = 0
    for graph_id, indices in sorted(by_graph.items()):
        entry = service.entries[graph_id]
        cells = [
            {
                "algorithm": queries[index]["algorithm"],
                "run_index": queries[index]["run_index"],
            }
            for index in indices
        ]
        expected = batched_search_trial(
            family=entry.family,
            size=entry.size,
            portfolio=service.portfolio,
            cells=cells,
            seed=entry.seed,
        )
        for index, reference in zip(indices, expected):
            if responses[index] != reference:
                mismatches += 1
    service.stop()
    leaked = []
    for name in shm_names:
        try:
            attach_graph(name)
            leaked.append(name)
        except FileNotFoundError:
            pass
    print(
        f"serve smoke: {len(queries)} queries / "
        f"{args.smoke_clients} clients over {len(graphs)} graphs, "
        f"{mismatches} batch-path mismatches, "
        f"{warm_mismatches} cache-warm mismatches, "
        f"{len(leaked)} leaked segments "
        f"(cold p50={stats['p50_ms']:.2f}ms "
        f"qps={stats['qps']:.1f}; "
        f"warm p50={warm_stats['p50_ms']:.2f}ms "
        f"qps={warm_stats['qps']:.1f}; "
        f"inline={batches['inline']} spilled={batches['spilled']} "
        f"cache_hits={snapshot['cache']['hits']})"
    )
    if mismatches or warm_mismatches or leaked or stats_problems:
        if leaked:
            print(
                f"error: orphan shm segments: {', '.join(leaked)}",
                file=sys.stderr,
            )
        if mismatches:
            print(
                "error: served answers diverged from the batch path",
                file=sys.stderr,
            )
        if warm_mismatches:
            print(
                "error: cache-warm answers diverged from the cold "
                "pass",
                file=sys.stderr,
            )
        for problem in stats_problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    print("serve smoke: PASS")
    return 0


def _serve_main(args) -> int:
    """The ``repro serve`` command."""
    import signal
    import threading

    from repro.service import SearchService

    try:
        entries = _serve_entries(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.query_timeout <= 0:
        print("error: --query-timeout must be > 0", file=sys.stderr)
        return 1
    cache_store = None
    if args.cache_store:
        from repro.runner.store import store_for

        cache_store = store_for(args.cache_store)
    service = SearchService(
        entries,
        portfolio=args.portfolio,
        workers=args.workers,
        host=args.host,
        port=args.port,
        corpus_dir=args.corpus,
        max_queue=args.max_queue,
        query_timeout=args.query_timeout,
        cache_size=args.cache_size,
        cache_store=cache_store,
        stats_interval=args.stats_interval,
    )
    try:
        service.start()
    except OSError as error:
        # Double-start on a bound port lands here (EADDRINUSE); the
        # failed start already unlinked everything it published.
        print(
            f"error: cannot bind {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 1
    try:
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{service.port}\n")
        if args.smoke:
            return _serve_smoke(service, args)
        print(
            f"serving {len(service.entries)} graphs "
            f"({args.portfolio} portfolio, {args.workers} workers, "
            f"per-query dispatch [{service.engine}], "
            f"cache {service.cache.capacity}) "
            f"at {service.address}",
            flush=True,
        )
        stop_event = threading.Event()

        def _handle_signal(signum, frame):
            stop_event.set()

        signal.signal(signal.SIGTERM, _handle_signal)
        signal.signal(signal.SIGINT, _handle_signal)
        stop_event.wait()
        print("shutting down", flush=True)
        return 0
    finally:
        service.stop()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        print(format_listing(markdown=args.markdown))
        return 0

    if args.command == "corpus":
        return _corpus_main(args)

    if args.command == "serve":
        try:
            return _serve_main(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    if args.command == "store":
        try:
            return _store_main(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    if args.command == "run":
        try:
            return _run_main(args)
        except OSError as error:
            return _path_error(error.filename, error.strerror or error)

    if args.command == "compare":
        from repro.core.compare import compare_results
        from repro.core.results import load_result

        records = []
        for path in (args.old, args.new):
            try:
                records.append(load_result(path))
            except OSError as error:
                return _path_error(path, error.strerror or error)
            except json.JSONDecodeError as error:
                return _path_error(path, f"not valid JSON ({error})")
            except (ValueError, KeyError, TypeError, AttributeError):
                return _path_error(path, "not an experiment record")
        report = compare_results(*records, rtol=args.rtol)
        print(report.format())
        return 0 if report.matches else 1

    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises


def _path_error(path, reason) -> int:
    """Report a bad user path as one ``error: <path>: <reason>`` line."""
    where = f"{path}: " if path else ""
    print(f"error: {where}{reason}", file=sys.stderr)
    return 1


def _unwritable_file_reason(path: str) -> Optional[str]:
    """Why a file cannot be created at ``path``, or ``None`` if it can.

    The reasons are the ``strerror`` texts the write itself would fail
    with, so the up-front check reads like the late failure it
    replaces.
    """
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    parent = os.path.dirname(path) or os.curdir
    try:
        with os.scandir(parent):
            pass
    except OSError as error:
        return error.strerror or str(error)
    if not os.access(parent, os.W_OK | os.X_OK):
        return os.strerror(errno.EACCES)
    return None


def _record_paths(args, experiment_id: str, single: bool) -> List[str]:
    """Where ``repro run`` writes one experiment's JSON record.

    ``--json`` names one file, so it applies to a single-experiment
    run only; ``--json-dir`` holds ``<id>.json`` for every experiment.
    """
    paths = [args.json] if single and args.json else []
    if args.json_dir:
        paths.append(
            os.path.join(args.json_dir, f"{experiment_id.lower()}.json")
        )
    return paths


def _run_main(args) -> int:
    """The ``repro run`` branch."""
    from repro.runner import reset_store_stats

    reset_store_stats()
    ids = _requested_ids(args.experiment)
    if ids is None:
        print(
            f"unknown experiment {args.experiment!r}; valid: "
            f"{', '.join(REGISTRY.ids())} or 'all'",
            file=sys.stderr,
        )
        return 2
    single = len(ids) == 1
    if args.json and not single:
        # The single-record flag cannot name one file for many
        # results; saying so beats silently writing nothing.
        print(
            "warning: --json applies to single-experiment runs "
            "only; use --json-dir to write one record per "
            "experiment (the flag was ignored)",
            file=sys.stderr,
        )
    if args.json_dir:
        os.makedirs(args.json_dir, exist_ok=True)
    # Checked before the run, so a typo in an output path does not
    # cost the experiments' results.
    for experiment_id in ids:
        for path in _record_paths(args, experiment_id, single):
            problem = _unwritable_file_reason(path)
            if problem is not None:
                return _path_error(path, problem)
    failures = 0
    for experiment_id in ids:
        spec = REGISTRY.get(experiment_id)
        try:
            _run_one(
                spec, args, _record_paths(args, experiment_id, single),
                strict=single,
            )
        except ReproError as error:
            # One experiment rejecting a knob (e.g. E19 and
            # --mode independent) must not abort the sweep or
            # discard the hours of output already produced.
            failures += 1
            print(
                f"error: {experiment_id} failed: {error}",
                file=sys.stderr,
            )
    _print_store_stats(args)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
