"""Tests for shared-memory snapshot publication (`repro.graphs.shm`).

The contract under test: an attached graph answers every query
bit-for-bit like the published snapshot (the faithfulness battery the
frozen backend itself is held to), attach needs only the segment name,
and lifecycle is airtight — unlink means gone, double-unlink is
harmless, and a bogus segment is a typed error, not garbage.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.graphs import (
    barabasi_albert_graph,
    cooper_frieze_graph,
    CooperFriezeParams,
    freeze,
    mori_tree,
)
from repro.graphs.frozen import FrozenGraph
from repro.graphs.shm import (
    SHM_SCHEMA,
    attach_graph,
    publish_graph,
    sweep_dead_segments,
)


def _snapshots():
    yield "mori", freeze(mori_tree(150, p=0.6, seed=11).graph)
    yield "ba", freeze(barabasi_albert_graph(120, m=2, seed=5))
    yield "cooper-frieze", freeze(
        cooper_frieze_graph(
            100, CooperFriezeParams(alpha=0.5), seed=3
        ).graph
    )


@pytest.fixture()
def published():
    snapshot = freeze(mori_tree(150, p=0.6, seed=11).graph)
    segment = publish_graph(snapshot)
    try:
        yield snapshot, segment
    finally:
        segment.close()
        segment.unlink()


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name,snapshot", list(_snapshots()),
        ids=[name for name, _ in _snapshots()],
    )
    def test_attached_graph_answers_like_the_original(
        self, name, snapshot
    ):
        segment = publish_graph(snapshot)
        try:
            attached = attach_graph(segment.name)
            try:
                assert attached.num_vertices == snapshot.num_vertices
                assert attached.num_edges == snapshot.num_edges
                assert (
                    attached.num_self_loops()
                    == snapshot.num_self_loops()
                )
                assert attached == snapshot
                assert hash(attached) == hash(snapshot)
                for v in snapshot.vertices():
                    assert attached.degree(v) == snapshot.degree(v)
                    assert (
                        attached.neighbors(v) == snapshot.neighbors(v)
                    )
                    assert (
                        attached.incident_edges(v)
                        == snapshot.incident_edges(v)
                    )
                assert (
                    attached.degree_sequence()
                    == snapshot.degree_sequence()
                )
                assert list(attached.edges()) == list(snapshot.edges())
            finally:
                attached.close()
        finally:
            segment.close()
            segment.unlink()

    def test_header_describes_the_graph(self, published):
        snapshot, segment = published
        assert segment.header["schema"] == SHM_SCHEMA
        assert segment.header["n"] == snapshot.num_vertices
        assert segment.header["num_edges"] == snapshot.num_edges

    def test_attached_graph_is_immutable(self, published):
        _, segment = published
        attached = attach_graph(segment.name)
        try:
            with pytest.raises(Exception):
                attached.add_vertex()
            with pytest.raises(Exception):
                attached.add_edge(1, 2)
        finally:
            attached.close()


class TestLifecycle:
    def test_attach_after_unlink_raises(self):
        snapshot = freeze(mori_tree(40, p=0.5, seed=1).graph)
        segment = publish_graph(snapshot)
        name = segment.name
        attach_graph(name).close()
        segment.close()
        segment.unlink()
        with pytest.raises(FileNotFoundError):
            attach_graph(name)

    def test_unlink_is_idempotent(self):
        snapshot = freeze(mori_tree(40, p=0.5, seed=1).graph)
        segment = publish_graph(snapshot)
        segment.close()
        segment.unlink()
        segment.unlink()  # second call must be harmless

    def test_attach_unknown_name_raises(self):
        with pytest.raises(FileNotFoundError):
            attach_graph("psm_repro_never_published")

    def test_attach_foreign_segment_is_typed_error(self):
        from multiprocessing import shared_memory

        foreign = shared_memory.SharedMemory(create=True, size=64)
        try:
            foreign.buf[:8] = b"NOTAGRPH"
            with pytest.raises(ExperimentError, match="bad magic"):
                attach_graph(foreign.name)
        finally:
            foreign.close()
            foreign.unlink()

    def test_multiple_attachments_share_one_segment(self, published):
        snapshot, segment = published
        first = attach_graph(segment.name)
        second = attach_graph(segment.name)
        try:
            assert first == second == snapshot
        finally:
            first.close()
            second.close()


class TestPrefixOfAttachedGraph:
    """A prefix of an attached graph owns its arrays, so either closes."""

    def test_prefix_is_a_plain_snapshot_that_closes(self, published):
        snapshot, segment = published
        attached = attach_graph(segment.name)
        try:
            prefix = attached.prefix(30, 29)
            assert type(prefix) is FrozenGraph
            assert prefix == snapshot.prefix(30, 29)
            prefix.close()
        finally:
            attached.close()

    def test_heap_prefix_views_the_parent_columns(self, published):
        snapshot, _ = published
        prefix = snapshot.prefix(30, 29)
        assert np.shares_memory(prefix._columns[0], snapshot._columns[0])
        assert np.shares_memory(prefix._columns[1], snapshot._columns[1])

    def test_closing_the_parent_leaves_a_live_prefix_usable(
        self, published
    ):
        snapshot, segment = published
        attached = attach_graph(segment.name)
        mapping = attached._segment._shm
        prefix = attached.prefix(30, 29)
        attached.close()
        # The mapping is unmapped: no view of it is left in the prefix
        # to pin it (an exported view makes the unmap fail silently).
        assert mapping._mmap is None
        assert prefix == snapshot.prefix(30, 29)
        assert [prefix.degree(v) for v in range(1, 31)] == [
            snapshot.prefix(30, 29).degree(v) for v in range(1, 31)
        ]


class TestDeadOwnerSweep:
    """``repro-<pid>-*`` names let a later owner reclaim a dead one's."""

    def test_segments_are_named_for_their_owner(self, published):
        _, segment = published
        owner, token = segment.name.split("-")[1:]
        assert owner == str(os.getpid()) and token

    def test_sweep_removes_dead_owners_only(self, tmp_path):
        with subprocess.Popen([sys.executable, "-c", "pass"]) as child:
            child.wait()
        dead_pid = child.pid  # exited and reaped
        names = {
            "dead": f"repro-{dead_pid}-abc",
            "live": f"repro-{os.getpid()}-abc",
            "foreign": "psm_0123abcd",
            "malformed": "repro-notapid-abc",
            "tokenless": f"repro-{dead_pid}-",
        }
        for name in names.values():
            (tmp_path / name).write_bytes(b"")
        assert sweep_dead_segments(str(tmp_path)) == [names["dead"]]
        assert sorted(os.listdir(tmp_path)) == sorted(
            name for key, name in names.items() if key != "dead"
        )
        assert sweep_dead_segments(str(tmp_path)) == []

    def test_missing_directory_sweeps_nothing(self, tmp_path):
        assert sweep_dead_segments(str(tmp_path / "absent")) == []
