"""Unit tests for the atomic filesystem idioms in repro.ioatomic."""

from __future__ import annotations

import os

import pytest

from repro.ioatomic import discard, sidecar_path, write_atomic


class _Unwritable:
    """A payload whose write fails after the temp file exists."""


class TestWriteAtomic:
    def test_writes_the_bytes_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "graph.bin"
        write_atomic(str(target), b"payload")
        assert target.read_bytes() == b"payload"
        assert os.listdir(tmp_path) == ["graph.bin"]

    def test_replaces_an_existing_file(self, tmp_path):
        target = tmp_path / "graph.bin"
        target.write_bytes(b"old")
        write_atomic(str(target), b"new")
        assert target.read_bytes() == b"new"

    def test_failed_write_keeps_the_destination(self, tmp_path):
        target = tmp_path / "graph.bin"
        target.write_bytes(b"old")
        with pytest.raises(TypeError):
            write_atomic(str(target), _Unwritable(), prefix=".part-")
        assert target.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["graph.bin"]


class TestSidecarsAndDiscard:
    def test_sidecar_names_are_tagged_and_unique(self, tmp_path):
        path = str(tmp_path / "trials.sqlite")
        names = {sidecar_path(path, "corrupt") for _ in range(5)}
        assert len(names) == 5
        prefix = f"{path}.corrupt-{os.getpid()}-"
        assert all(name.startswith(prefix) for name in names)

    def test_discard_removes_and_tolerates_absence(self, tmp_path):
        target = tmp_path / "debris.tmp"
        target.write_bytes(b"x")
        discard(str(target))
        assert not target.exists()
        discard(str(target))  # already gone: no error
