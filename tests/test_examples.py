"""Smoke tests: every example script and the README quick start run.

Examples are part of the public contract; each is executed as a real
subprocess (its own interpreter, its own argv) at a reduced size, and
its output is checked for the landmark lines a reader is promised.
The README's quick-start commands are run the same way.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys

import pytest

from repro.core.registry import REGISTRY

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(ROOT, "examples")


def run_example(script: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script), *args],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_all_examples_present(self):
        scripts = sorted(
            f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")
        )
        assert scripts == [
            "lower_bound_audit.py",
            "navigable_vs_scalefree.py",
            "p2p_file_search.py",
            "quickstart.py",
        ]

    def test_quickstart(self):
        out = run_example("quickstart.py", "400")
        assert "Theorem 1 floor" in out
        assert "flooding" in out
        assert "True" in out

    def test_p2p_file_search(self):
        out = run_example("p2p_file_search.py", "800")
        assert "P2P network" in out
        assert "high-degree" in out
        assert "percolation" in out
        assert "hit rate" in out

    @pytest.mark.slow
    def test_navigable_vs_scalefree(self):
        out = run_example("navigable_vs_scalefree.py")
        assert "kleinberg" in out
        assert "sqrt(n)" in out

    def test_lower_bound_audit_sections(self):
        out = run_example("lower_bound_audit.py")
        assert "Step 1" in out
        assert "holds: True" in out
        assert "Step 2" in out
        assert "margin=+" in out
        assert "Step 3" in out


def quick_start_commands():
    """The README's first ``sh`` block: ``(argv, comment)`` per line.

    ``export`` lines are dropped; the runner sets ``PYTHONPATH``.
    """
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    block = re.search(r"```sh\n(.*?)```", readme, re.DOTALL).group(1)
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv and argv[0] != "export":
            commands.append((argv, comment.strip()))
    return commands


def run_quick_start(argv, cwd):
    assert argv[0] == "python", argv
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, *argv[1:]],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=240,
    )
    assert result.returncode == 0, (argv, result.stderr)


class TestReadmeQuickStart:
    def test_list_comment_names_the_registry_range(self):
        (comment,) = [
            comment for argv, comment in quick_start_commands()
            if argv[-1] == "list"
        ]
        ids = REGISTRY.ids()
        assert f"{ids[0]}..{ids[-1]}" in comment

    def test_list_and_quick_commands_exit_zero(self, tmp_path):
        fast = [
            argv for argv, _ in quick_start_commands()
            if argv[-1] in ("list", "--quick")
        ]
        assert len(fast) >= 3
        for argv in fast:
            run_quick_start(argv, tmp_path)

    @pytest.mark.slow
    def test_every_command_exits_zero(self, tmp_path):
        for argv, _ in quick_start_commands():
            run_quick_start(argv, tmp_path)
