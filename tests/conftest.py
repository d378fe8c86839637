"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import pytest

from repro.graphs.base import MultiGraph
from repro.graphs.mori import merged_mori_graph, mori_tree


@pytest.fixture
def triangle() -> MultiGraph:
    """A 3-cycle: the smallest graph with a real choice at every vertex."""
    return MultiGraph.from_edges(3, [(2, 1), (3, 2), (3, 1)])


@pytest.fixture
def path4() -> MultiGraph:
    """A path 1-2-3-4."""
    return MultiGraph.from_edges(4, [(2, 1), (3, 2), (4, 3)])


@pytest.fixture
def loop_graph() -> MultiGraph:
    """Two vertices, a connecting edge, and a self-loop at vertex 2."""
    graph = MultiGraph(2)
    graph.add_edge(2, 1)
    graph.add_edge(2, 2)
    return graph


@pytest.fixture
def parallel_graph() -> MultiGraph:
    """Two vertices joined by two parallel edges."""
    return MultiGraph.from_edges(2, [(2, 1), (2, 1)])


@pytest.fixture
def small_tree():
    """A deterministic small Móri tree (seeded)."""
    return mori_tree(30, 0.5, seed=42)


@pytest.fixture
def small_merged():
    """A deterministic small merged Móri graph (seeded)."""
    return merged_mori_graph(20, 2, 0.5, seed=42)


@pytest.fixture
def reference_arms(monkeypatch):
    """A context manager that runs its block on the serial reference arms.

    Inside ``with reference_arms():`` every trial resolves a default
    (``None``) search engine and graph generator to the ``serial``
    reference arms instead of the fast ones (see
    :func:`repro.core.trials.fastest_available`).  The trials' graph
    snapshot is also skipped (``freeze`` returns its argument), so
    searches read the mutable :class:`MultiGraph` instead of a
    ``FrozenGraph``.  The block's ``as`` target is a list that collects
    every ``FrozenGraph`` constructed inside it.  Run experiments in it
    with ``jobs=1`` so that no worker process escapes the patch.
    """
    import repro.core.trials as trials
    import repro.service.core as service_core
    import repro.service.daemon as service_daemon
    from repro.graphs.frozen import FrozenGraph

    resolve = trials.fastest_available

    def reference_first(choice, axis):
        return resolve(choice or axis[0], axis)

    @contextlib.contextmanager
    def serial_arms():
        built = []
        init = FrozenGraph.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        with monkeypatch.context() as patch:
            # Every module that binds the resolver at import time.
            for module in (trials, service_core, service_daemon):
                patch.setattr(module, "fastest_available", reference_first)
            patch.setattr(trials, "freeze", lambda graph: graph)
            patch.setattr(FrozenGraph, "__init__", recording_init)
            yield built

    return serial_arms
