"""Builder-equivalence battery: vectorized generation must be exact.

The serial builders (:mod:`repro.graphs.mori` and friends) are the
equivalence oracle; the batched kernels in :mod:`repro.graphs.fastgen`
are only allowed to change wall-clock time.  The battery pins the
contract from every side:

* **bit-identity** — edge lists *with ids*, degree sequences,
  self-loop counts and ``FrozenGraph`` hashes agree with the serial
  builders across a Móri ``p`` grid (both endpoints included), merge
  arities, BA, and Cooper–Frieze parameter corners;
* **golden digests** — independent sha256 pins (shared with the PR 3
  trajectory battery in ``test_frozen_graph.py``) catch the case where
  both builders drift together;
* **stream discipline** — after a fast build on a shared generator the
  generator sits exactly where the serial build would have left it;
* **trajectory checkpoints** — vectorized ``build_trajectory`` returns
  the serial marks, and its ``prefix()`` snapshots match the same
  golden digests the serial checkpoints pinned in PR 3;
* **dispatch** — ``build_graph_snapshot`` and the family layer route
  ``generator="vectorized"`` correctly, kernel-less families fall back
  serially, and ``generator="serial"`` never reaches a kernel.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

import repro.graphs.fastgen as fastgen_module
from repro.core.families import (
    BarabasiAlbertFamily,
    ConfigurationFamily,
    CooperFriezeFamily,
    MoriFamily,
)
from repro.core.trials import GENERATORS, build_graph_snapshot
from repro.errors import ExperimentError, InvalidParameterError
from repro.graphs import FrozenGraph, MultiGraph, freeze
from repro.graphs.barabasi_albert import barabasi_albert_graph
from repro.graphs.cooper_frieze import (
    CooperFriezeParams,
    cooper_frieze_graph,
)
from repro.graphs.fastgen import (
    fast_barabasi_albert_frozen,
    fast_cooper_frieze_frozen,
    fast_merged_mori_frozen,
    fast_mori_parents,
    frozen_from_pairs,
)
from repro.graphs.mori import merged_mori_graph, mori_tree

P_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
SEEDS = (0, 7)


def _digest(graph) -> str:
    """sha256 of the labeled edge list (test_frozen_graph's formula)."""
    payload = json.dumps(
        [graph.num_vertices, [[t, h] for _, t, h in graph.edges()]],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def assert_identical(fast: FrozenGraph, serial) -> None:
    """``fast`` must mirror the serial graph bit for bit.

    Edge *ids* matter, not just endpoints: the searches read incidence
    slots, so a permuted edge list would pass a set comparison and
    still diverge mid-walk.
    """
    reference = freeze(serial)
    assert isinstance(fast, FrozenGraph)
    assert fast.num_vertices == reference.num_vertices
    assert fast.num_edges == reference.num_edges
    assert list(fast.edges()) == list(reference.edges())
    assert fast.degree_sequence() == reference.degree_sequence()
    assert fast.num_self_loops() == reference.num_self_loops()
    assert fast == reference
    assert hash(fast) == hash(reference)
    for vertex in (1, fast.num_vertices // 2, fast.num_vertices):
        assert fast.incident_edges(vertex) == (
            reference.incident_edges(vertex)
        )
        assert fast.neighbors(vertex) == reference.neighbors(vertex)
        assert fast.in_degree(vertex) == reference.in_degree(vertex)
        assert fast.out_degree(vertex) == reference.out_degree(vertex)


# ----------------------------------------------------------------------
# Kernel-by-kernel bit-identity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", P_GRID)
class TestMoriTreeEquivalence:
    def test_parent_vector_matches_serial(self, p, seed):
        serial = mori_tree(200, p, seed=seed)
        fast = fast_mori_parents(200, p, seed=seed)
        assert fast.tolist() == list(serial.parents)

    def test_frozen_tree_matches_serial(self, p, seed):
        """At m = 1 the merged kernel builds the tree itself."""
        assert_identical(
            fast_merged_mori_frozen(150, 1, p, seed=seed),
            mori_tree(150, p, seed=seed).graph,
        )


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("p", P_GRID)
class TestMergedMoriEquivalence:
    def test_matches_serial(self, p, m):
        assert_identical(
            fast_merged_mori_frozen(120, m, p, seed=3),
            merged_mori_graph(120, m, p, seed=3, keep_tree=False).graph,
        )

    def test_family_vectorized_build(self, p, m):
        family = MoriFamily(p=p, m=m)
        assert_identical(
            family.build_frozen(90, seed=11, generator="vectorized"),
            family.build(90, seed=11),
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", (1, 2, 3))
class TestBarabasiAlbertEquivalence:
    def test_matches_serial(self, m, seed):
        assert_identical(
            fast_barabasi_albert_frozen(150, m, seed=seed),
            barabasi_albert_graph(150, m, seed=seed),
        )

    def test_family_vectorized_build(self, m, seed):
        family = BarabasiAlbertFamily(m=m)
        assert_identical(
            family.build_frozen(100, seed=seed, generator="vectorized"),
            family.build(100, seed=seed),
        )


#: Cooper-Frieze parameter corners: each exercises a distinct branch
#: mix of the step loop (NEW/OLD, uniform/preferential terminals,
#: multi-edge count draws, total-degree urn bookkeeping).
CF_CORNERS = {
    "default": dict(),
    "growth-only": dict(alpha=1.0),
    "uniform-ends": dict(alpha=0.6, beta=1.0, gamma=1.0, delta=1.0),
    "pref-ends": dict(alpha=0.6, beta=0.0, gamma=0.0, delta=0.0),
    "multi-edge": dict(
        alpha=0.5,
        new_edge_distribution=(0.5, 0.3, 0.2),
        old_edge_distribution=(0.6, 0.4),
    ),
    "total-degree": dict(preferential_by="total"),
}


@pytest.mark.parametrize("corner", sorted(CF_CORNERS))
class TestCooperFriezeEquivalence:
    def test_matches_serial(self, corner):
        params = CooperFriezeParams(**CF_CORNERS[corner])
        fast, marks = fast_cooper_frieze_frozen(110, params, seed=2)
        assert marks is None
        assert_identical(
            fast, cooper_frieze_graph(110, params, seed=2).graph
        )

    def test_checkpoint_marks_match_serial(self, corner):
        params = CooperFriezeParams(**CF_CORNERS[corner])
        checkpoints = (40, 70, 110)
        fast, marks = fast_cooper_frieze_frozen(
            110, params, seed=2, checkpoints=checkpoints
        )
        realised = cooper_frieze_graph(
            110, params, seed=2, checkpoints=checkpoints
        )
        assert marks == dict(realised.checkpoint_edge_counts)
        assert_identical(fast, realised.graph)

    def test_family_vectorized_build(self, corner):
        family = CooperFriezeFamily(
            params=CooperFriezeParams(**CF_CORNERS[corner])
        )
        assert_identical(
            family.build_frozen(80, seed=9, generator="vectorized"),
            family.build(80, seed=9),
        )


# ----------------------------------------------------------------------
# Golden digests and trajectory checkpoints
# ----------------------------------------------------------------------

#: sha256 of (n, edge list) for `family.build(n, seed=0)` — the same
#: pins the PR 3 trajectory battery holds in ``test_frozen_graph.py``.
#: The vectorized builders must land on them both as independent builds
#: and as ``prefix()`` checkpoint snapshots of one shared realisation.
GOLDEN_SIZES = (50, 80, 120)
GOLDEN_DIGESTS = {
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

GOLDEN_FAMILIES = {
    "mori": lambda: MoriFamily(p=0.5, m=2),
    "cooper-frieze": lambda: CooperFriezeFamily(),
    "ba": lambda: BarabasiAlbertFamily(m=2),
}


#: Pins of ``fast_merged_mori_frozen(120, m, 0.5, seed=0)`` at the
#: arities the family pins above leave out.  The m=1 value is the plain
#: Móri tree's, pinned before the tree lost its own fast builder.
MERGED_ARITY_GOLDEN = {
    1: "27eafce69e852236b2bb3e07a0a2f764c5d36d1f6cabc94c2d28a03077ac5c6c",
    3: "df25f2925d441da16606cbd956d9d640a6420d191a6e1241708d978ae976a302",
}


class TestGoldenDigests:
    @pytest.mark.parametrize("model", sorted(GOLDEN_FAMILIES))
    def test_independent_builds_hit_the_pins(self, model):
        family = GOLDEN_FAMILIES[model]()
        for n in GOLDEN_SIZES:
            fast = family.build_frozen(
                n, seed=0, generator="vectorized"
            )
            assert _digest(fast) == GOLDEN_DIGESTS[model][n]

    @pytest.mark.parametrize("model", sorted(GOLDEN_FAMILIES))
    def test_trajectory_checkpoints_hit_the_pins(self, model):
        family = GOLDEN_FAMILIES[model]()
        graph, marks = family.build_trajectory(
            GOLDEN_SIZES, seed=0, generator="vectorized"
        )
        serial_graph, serial_marks = family.build_trajectory(
            GOLDEN_SIZES, seed=0
        )
        assert marks == serial_marks
        assert isinstance(graph, FrozenGraph)
        for n in GOLDEN_SIZES:
            snapshot = graph.prefix(n, marks[n])
            assert _digest(snapshot) == GOLDEN_DIGESTS[model][n]

    @pytest.mark.parametrize("m", sorted(MERGED_ARITY_GOLDEN))
    def test_merged_arity_pins(self, m):
        fast = fast_merged_mori_frozen(120, m, 0.5, seed=0)
        assert _digest(fast) == MERGED_ARITY_GOLDEN[m]


# ----------------------------------------------------------------------
# Stream discipline: the generator ends where the serial build ends
# ----------------------------------------------------------------------


class TestStreamDiscipline:
    """Fast builds on a shared ``Random`` leave it serial-positioned.

    The kernels bulk-extract words and then reposition the generator,
    so interleaving fast and serial construction on one stream must
    stay faithful — the next draw after a fast build equals the next
    draw after the serial build it replaced.
    """

    def _tail(self, rng):
        return [rng.random() for _ in range(5)]

    def test_mori_tree(self):
        fast_rng, serial_rng = random.Random(42), random.Random(42)
        fast_mori_parents(130, 0.3, seed=fast_rng)
        mori_tree(130, 0.3, seed=serial_rng)
        assert self._tail(fast_rng) == self._tail(serial_rng)

    def test_merged_mori(self):
        fast_rng, serial_rng = random.Random(42), random.Random(42)
        fast_merged_mori_frozen(90, 2, 0.7, seed=fast_rng)
        merged_mori_graph(90, 2, 0.7, seed=serial_rng, keep_tree=False)
        assert self._tail(fast_rng) == self._tail(serial_rng)

    def test_barabasi_albert(self):
        fast_rng, serial_rng = random.Random(42), random.Random(42)
        fast_barabasi_albert_frozen(110, 3, seed=fast_rng)
        barabasi_albert_graph(110, 3, seed=serial_rng)
        assert self._tail(fast_rng) == self._tail(serial_rng)

    def test_cooper_frieze(self):
        fast_rng, serial_rng = random.Random(42), random.Random(42)
        fast_cooper_frieze_frozen(70, seed=fast_rng)
        cooper_frieze_graph(70, seed=serial_rng)
        assert self._tail(fast_rng) == self._tail(serial_rng)

    @pytest.mark.parametrize("m", (1, 2, 3))
    @pytest.mark.parametrize("p", (0.0, 0.5, 1.0))
    def test_merged_mori_grid(self, p, m):
        """Every arity, and both p endpoints, where every step takes
        the same one of the two attachment branches."""
        fast_rng, serial_rng = random.Random(42), random.Random(42)
        fast_merged_mori_frozen(90, m, p, seed=fast_rng)
        merged_mori_graph(90, m, p, seed=serial_rng, keep_tree=False)
        assert self._tail(fast_rng) == self._tail(serial_rng)

    def test_interleaved_builds_stay_faithful(self):
        """Fast, serial, fast on ONE stream == all-serial on another."""
        mixed, pure = random.Random(9), random.Random(9)
        first = fast_merged_mori_frozen(60, 2, 0.5, seed=mixed)
        middle = merged_mori_graph(
            50, 1, 0.25, seed=mixed, keep_tree=False
        ).graph
        last = fast_barabasi_albert_frozen(40, 2, seed=mixed)
        assert_identical(
            first,
            merged_mori_graph(60, 2, 0.5, seed=pure, keep_tree=False)
            .graph,
        )
        assert freeze(middle) == freeze(
            merged_mori_graph(50, 1, 0.25, seed=pure, keep_tree=False)
            .graph
        )
        assert_identical(last, barabasi_albert_graph(40, 2, seed=pure))


class TestChunkedScan:
    """The scans hold one chunk of words at a time; seams are exact.

    The graphs above are smaller than one production chunk, so these
    shrink the chunk to put many seams inside a small build, and
    shrink the word windows to force the overrun-and-retry path.
    """

    def _builds(self):
        return [
            (
                lambda rng: fast_merged_mori_frozen(
                    300, 1, 0.4, seed=rng
                ),
                lambda rng: mori_tree(300, 0.4, seed=rng).graph,
            ),
            (
                lambda rng: fast_barabasi_albert_frozen(150, 2, seed=rng),
                lambda rng: barabasi_albert_graph(150, 2, seed=rng),
            ),
        ]

    def _assert_faithful(self):
        for fast_build, serial_build in self._builds():
            fast_rng, serial_rng = random.Random(3), random.Random(3)
            assert_identical(fast_build(fast_rng), serial_build(serial_rng))
            assert fast_rng.random() == serial_rng.random()

    def test_many_seams(self, monkeypatch):
        monkeypatch.setattr(fastgen_module, "_CHUNK", 7)
        self._assert_faithful()

    def test_short_windows_retry(self, monkeypatch):
        monkeypatch.setattr(fastgen_module, "_CHUNK", 50)
        window = fastgen_module._WordStream.window
        starts = []

        def short_window(stream, start, count):
            starts.append(start)
            return window(stream, start, count // 3)

        monkeypatch.setattr(
            fastgen_module._WordStream, "window", short_window
        )
        self._assert_faithful()
        # A chunk that overran its window asked again from the same
        # word: the retry path really ran.
        assert len(starts) > len(set(starts))


# ----------------------------------------------------------------------
# Dispatch: snapshot helper, fallback families, arm selection
# ----------------------------------------------------------------------


class TestDispatch:
    def test_build_graph_snapshot_generators_agree(self):
        family = MoriFamily(p=0.5, m=2)
        fast = build_graph_snapshot(family, 80, 4, "vectorized")
        serial = build_graph_snapshot(family, 80, 4, "serial")
        assert isinstance(fast, FrozenGraph)
        assert isinstance(serial, FrozenGraph)
        assert fast == serial
        assert hash(fast) == hash(serial)

    def test_build_graph_snapshot_on_reference_arms(self, reference_arms):
        family = MoriFamily(p=0.5, m=2)
        with reference_arms():
            reference = build_graph_snapshot(family, 80, 4)
        assert isinstance(reference, MultiGraph)
        assert freeze(reference) == build_graph_snapshot(family, 80, 4)

    def test_unknown_generator_is_rejected(self):
        family = MoriFamily(p=0.5, m=1)
        with pytest.raises(ExperimentError, match="unknown graph generator"):
            build_graph_snapshot(family, 40, 0, "warp")

    def test_kernel_less_family_falls_back_serially(self):
        """ConfigurationFamily has no kernel: vectorized == serial."""
        family = ConfigurationFamily(exponent=2.5)
        fast = family.build_frozen(120, seed=6, generator="vectorized")
        assert fast == freeze(family.build(120, seed=6))

    def test_generators_vocabulary(self):
        assert GENERATORS == ("serial", "vectorized")


class TestGeneratorArms:
    """The serial arm never reaches a kernel; kernels validate first."""

    def test_serial_generator_never_reaches_the_kernels(self, monkeypatch):
        def kernel(*args, **kwargs):
            raise AssertionError("generator='serial' ran a fastgen kernel")

        monkeypatch.setattr(fastgen_module, "frozen_from_pairs", kernel)
        family = MoriFamily(p=0.5, m=1)
        built = family.build_frozen(40, seed=0, generator="serial")
        assert built == freeze(family.build(40, seed=0))

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(InvalidParameterError):
            fast_mori_parents(1, 0.5, seed=0)
        with pytest.raises(InvalidParameterError):
            fast_merged_mori_frozen(50, 1, 1.5, seed=0)
        with pytest.raises(InvalidParameterError):
            fast_merged_mori_frozen(50, 0, 0.5, seed=0)
        with pytest.raises(InvalidParameterError):
            fast_cooper_frieze_frozen(
                50, seed=0, checkpoints=(1, 20)
            )
