"""Unit tests for the Cooper–Frieze equivalence machinery (Theorem 2)."""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import AnalysisError, InvalidParameterError
from repro.equivalence.cooper_frieze import (
    CFWindowProfile,
    _untouched_parents,
    estimate_untouched_probability,
    untouched_window_event,
    window_parent_degree_profile,
)
from repro.graphs.cooper_frieze import (
    CooperFriezeParams,
    cooper_frieze_graph,
)
from repro.graphs.fastgen import cooper_frieze_replay


@pytest.fixture(scope="module")
def traced_cf():
    return cooper_frieze_graph(
        60, CooperFriezeParams(alpha=0.8), seed=5, record_trace=True
    )


class TestTraceRecording:
    def test_trace_absent_by_default(self):
        cf = cooper_frieze_graph(20, seed=0)
        assert cf.trace is None

    def test_trace_covers_all_steps(self, traced_cf):
        assert len(traced_cf.trace) == traced_cf.num_steps
        new_steps = [r for r in traced_cf.trace if r.kind == "new"]
        assert len(new_steps) == traced_cf.num_new_steps

    def test_trace_edges_partition_the_graph(self, traced_cf):
        traced_edges = [
            eid for record in traced_cf.trace for eid in record.edge_ids
        ]
        # Every edge except the initial self-loop (edge 0) is traced,
        # each exactly once, in insertion order.
        assert traced_edges == list(
            range(1, traced_cf.graph.num_edges)
        )

    def test_new_records_match_vertex_births(self, traced_cf):
        new_vertices = [
            record.vertex
            for record in traced_cf.trace
            if record.kind == "new"
        ]
        assert new_vertices == list(range(2, traced_cf.n + 1))


class TestUntouchedEvent:
    def test_requires_trace(self):
        cf = cooper_frieze_graph(20, seed=0)
        with pytest.raises(InvalidParameterError):
            untouched_window_event(cf, 15, 20)

    def test_bounds_validated(self, traced_cf):
        with pytest.raises(InvalidParameterError):
            untouched_window_event(traced_cf, 0, 10)
        with pytest.raises(InvalidParameterError):
            untouched_window_event(traced_cf, 10, 61)

    def test_trivial_window(self, traced_cf):
        # Empty window (b = a): event vacuously true.
        assert untouched_window_event(traced_cf, 30, 30)

    def test_event_implies_structure(self, traced_cf):
        """Whenever the event holds, the structural conditions hold."""
        n = traced_cf.n
        a, b = n - 5, n
        if untouched_window_event(traced_cf, a, b):
            graph = traced_cf.graph
            for v in range(a + 1, b + 1):
                assert graph.in_degree(v) == 0
                assert graph.out_degree(v) == 1
                (eid,) = [
                    e
                    for e in graph.incident_edges(v)
                    if graph.edge_endpoints(e)[0] == v
                ]
                assert graph.edge_endpoints(eid)[1] <= a

    def test_event_detects_touched_window(self):
        """With alpha small, OLD steps batter the newest vertices, so
        wide windows are essentially never untouched."""
        params = CooperFriezeParams(alpha=0.3)
        hits = 0
        for seed in range(20):
            cf = cooper_frieze_graph(
                40, params, seed=seed, record_trace=True
            )
            hits += untouched_window_event(cf, 20, 40)
        assert hits <= 6  # wide window, many OLD steps: rare event


class TestProbabilityEstimation:
    def test_probability_in_unit_interval(self):
        params = CooperFriezeParams(alpha=0.75)
        probability = estimate_untouched_probability(
            80, 72, 80, params, num_samples=100, seed=1
        )
        assert 0.0 <= probability <= 1.0

    def test_sqrt_window_probability_stays_positive(self):
        """The Theorem 2 premise: for sqrt-width windows the event
        probability does not collapse as n grows."""
        params = CooperFriezeParams(alpha=0.75)
        import math

        values = []
        for n in (64, 144, 256):
            width = math.isqrt(n)
            values.append(
                estimate_untouched_probability(
                    n, n - width, n, params,
                    num_samples=150, seed=n,
                )
            )
        assert all(v > 0.3 for v in values)

    def test_validation(self):
        params = CooperFriezeParams()
        with pytest.raises(InvalidParameterError):
            estimate_untouched_probability(10, 5, 8, params, 0)
        with pytest.raises(InvalidParameterError):
            estimate_untouched_probability(10, 0, 8, params, 10)


class TestParentDegreeProfile:
    def test_profile_shape(self):
        params = CooperFriezeParams(alpha=0.8)
        profile = window_parent_degree_profile(
            50, 45, 50, params, num_samples=300, seed=3
        )
        assert len(profile.mean_parent_degree) == 5
        assert profile.num_event_samples > 0
        assert 0.0 < profile.event_rate <= 1.0
        assert profile.spread >= 0.0

    def test_no_event_raises(self):
        # alpha small + huge window: event essentially impossible.
        params = CooperFriezeParams(alpha=0.3)
        with pytest.raises(AnalysisError):
            window_parent_degree_profile(
                40, 5, 40, params, num_samples=20, seed=4
            )

    def test_validation(self):
        params = CooperFriezeParams()
        with pytest.raises(InvalidParameterError):
            window_parent_degree_profile(10, 0, 5, params, 10)
        with pytest.raises(InvalidParameterError):
            window_parent_degree_profile(10, 5, 8, params, 0)

    def test_event_rate_equals_the_probability_estimate(self):
        """Both estimators read the same samples from one seed."""
        params = CooperFriezeParams(alpha=0.75)
        profile = window_parent_degree_profile(
            64, 56, 64, params, num_samples=200, seed=6
        )
        assert profile.event_rate == estimate_untouched_probability(
            64, 56, 64, params, num_samples=200, seed=6
        )

    def test_profile_flat_under_conditioning(self):
        """Exchangeability: every window position has the same
        conditional parent-degree mean.  The bound leaves room for the
        sampling noise of a heavy-tailed mean over ~260 event draws."""
        profile = window_parent_degree_profile(
            64, 56, 64, CooperFriezeParams(alpha=0.75),
            num_samples=400, seed=2,
        )
        assert profile.num_event_samples > 200
        means = profile.mean_parent_degree
        assert profile.spread < 0.25 * (sum(means) / len(means))

    def test_empty_window_always_holds(self):
        profile = window_parent_degree_profile(
            30, 12, 12, CooperFriezeParams(), num_samples=15, seed=0
        )
        assert profile.num_event_samples == 15
        assert profile.event_rate == 1.0
        assert profile.mean_parent_degree == ()
        assert profile.spread == 0.0

    def test_rate_and_spread_of_a_given_profile(self):
        profile = CFWindowProfile(
            a=10, b=13, num_samples=8, num_event_samples=2,
            mean_parent_degree=(4.0, 6.5, 5.0),
        )
        assert profile.event_rate == 0.25
        assert profile.spread == 2.5


#: Parameter corners for the flat replay, under both preferential
#: modes: NEW/OLD mixes, uniform and preferential terminals, multi-edge
#: count draws (the alias table's redirect branch).
REPLAY_CORNERS = {
    "default": dict(alpha=0.75),
    "old-heavy": dict(alpha=0.5),
    "pref-ends": dict(alpha=0.6, beta=0.0, gamma=0.0, delta=0.0),
    "multi-edge": dict(
        alpha=0.7,
        new_edge_distribution=(0.7, 0.2, 0.1),
        old_edge_distribution=(0.6, 0.4),
    ),
}


def _windows(n):
    """Windows the estimators meet: theorem-style sqrt, narrow, empty."""
    width = math.isqrt(n)
    return [(n - width, n), (n // 2, n // 2 + 3), (n - 2, n), (5, 5)]


def _serial_profile(n, a, b, params, num_samples, seed):
    """``window_parent_degree_profile`` on traced serial builds."""
    rng = random.Random(seed)
    totals = [0.0] * (b - a)
    hits = 0
    for _ in range(num_samples):
        cf = cooper_frieze_graph(n, params, seed=rng, record_trace=True)
        if not untouched_window_event(cf, a, b):
            continue
        hits += 1
        births = {r.vertex: r for r in cf.trace if r.kind == "new"}
        for position, v in enumerate(range(a + 1, b + 1)):
            _, head = cf.graph.edge_endpoints(births[v].edge_ids[0])
            totals[position] += cf.graph.degree(head)
    return hits, tuple(t / hits for t in totals)


@pytest.mark.parametrize("mode", ["indegree", "total"])
@pytest.mark.parametrize("corner", sorted(REPLAY_CORNERS))
class TestFlatReplay:
    """The flat replay equals the traced serial builder, sample by sample."""

    @staticmethod
    def _params(corner, mode):
        return CooperFriezeParams(
            preferential_by=mode, **REPLAY_CORNERS[corner]
        )

    def test_replay_matches_traced_build(self, corner, mode):
        params = self._params(corner, mode)
        for seed in range(50):
            n = 30 + seed % 35
            serial_rng = random.Random(seed)
            replay_rng = random.Random(seed)
            cf = cooper_frieze_graph(
                n, params, seed=serial_rng, record_trace=True
            )
            replay = cooper_frieze_replay(
                n, params, replay_rng, record_steps=True
            )
            assert replay_rng.getstate() == serial_rng.getstate()
            assert list(zip(replay.tails, replay.heads)) == [
                cf.graph.edge_endpoints(e)
                for e in range(cf.graph.num_edges)
            ]
            births = [None, None] + [
                (record.edge_ids[0], len(record.edge_ids))
                for record in cf.trace
                if record.kind == "new"
            ]
            assert replay.births == births
            assert replay.initiators == {
                record.vertex for record in cf.trace if record.kind == "old"
            }

    def test_event_and_parents_match_traced_build(self, corner, mode):
        params = self._params(corner, mode)
        hits = 0
        for seed in range(50):
            n = 40 + seed % 25
            cf = cooper_frieze_graph(
                n, params, seed=seed, record_trace=True
            )
            replay = cooper_frieze_replay(
                n, params, seed, record_steps=True
            )
            births = {r.vertex: r for r in cf.trace if r.kind == "new"}
            for a, b in _windows(n):
                parents = _untouched_parents(replay, a, b)
                event = untouched_window_event(cf, a, b)
                assert (parents is not None) == event, (seed, a, b)
                if event:
                    hits += b > a
                    assert parents == [
                        cf.graph.edge_endpoints(births[v].edge_ids[0])[1]
                        for v in range(a + 1, b + 1)
                    ]
        assert hits  # the comparison saw nonempty untouched windows

    def test_estimators_equal_serial_oracle(self, corner, mode):
        params = self._params(corner, mode)
        n = 64
        for a, b in _windows(n)[:2]:
            shared = random.Random(7)
            estimate = estimate_untouched_probability(
                n, a, b, params, 40, seed=shared
            )
            oracle = random.Random(7)
            hits = sum(
                untouched_window_event(
                    cooper_frieze_graph(
                        n, params, seed=oracle, record_trace=True
                    ),
                    a, b,
                )
                for _ in range(40)
            )
            assert estimate == hits / 40
            assert shared.getstate() == oracle.getstate()
        a, b = _windows(n)[0]
        hits, means = _serial_profile(n, a, b, params, 40, 11)
        assert hits
        assert window_parent_degree_profile(
            n, a, b, params, 40, seed=11
        ) == CFWindowProfile(a, b, 40, hits, means)
