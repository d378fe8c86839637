"""Result tables and experiment records.

Every experiment produces an :class:`ExperimentResult`: a set of
:class:`Table` objects (the paper-style rows the benchmark harness
prints) plus a flat ``derived`` mapping of headline scalars (fitted
exponents, bound comparisons) that tests assert against.  Records
serialise to JSON so the numbers behind the README's experiment index
can be regenerated and diffed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.errors import ExperimentError

__all__ = ["Table", "ExperimentResult", "save_result", "load_result"]

Cell = Union[str, int, float]


@dataclass
class Table:
    """A printable result table.

    Attributes
    ----------
    title:
        Table caption.
    columns:
        Column headers.
    rows:
        Data rows; each must match ``columns`` in length.
    notes:
        Free-form footnotes (assumptions, truncation caveats).
    """

    title: str
    columns: Sequence[str]
    rows: List[Tuple[Cell, ...]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        """Append a row, validating its width."""
        if len(cells) != len(self.columns):
            raise ExperimentError(
                f"row has {len(cells)} cells, table "
                f"{self.title!r} has {len(self.columns)} columns"
            )
        self.rows.append(tuple(cells))

    def format(self) -> str:
        """Render as an aligned plain-text table."""
        headers = [str(c) for c in self.columns]
        rendered = [
            [_format_cell(cell) for cell in row] for row in self.rows
        ]
        widths = [len(h) for h in headers]
        for row in rendered:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(
                cell.rjust(widths[i]) for i, cell in enumerate(cells)
            )

        parts = [self.title, line(headers), line(["-" * w for w in widths])]
        parts.extend(line(row) for row in rendered)
        for note in self.notes:
            parts.append(f"  note: {note}")
        return "\n".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Table":
        """Inverse of :meth:`to_dict`."""
        return cls(
            title=data["title"],
            columns=tuple(data["columns"]),
            rows=[tuple(row) for row in data["rows"]],
            notes=list(data.get("notes", [])),
        )


def _format_cell(cell: Cell) -> str:
    if isinstance(cell, float):
        if cell != 0 and (abs(cell) >= 1e5 or abs(cell) < 1e-3):
            return f"{cell:.3e}"
        return f"{cell:.3f}"
    return str(cell)


@dataclass
class ExperimentResult:
    """Everything one experiment run produced.

    Attributes
    ----------
    experiment_id:
        Stable registry id (``"E1"`` ... ``"E22"``).
    title:
        Human-readable experiment name.
    params:
        The parameters the run used (sizes, seeds, sweeps).
    tables:
        Printable result tables.
    derived:
        Headline scalars tests assert on (e.g.
        ``{"exponent/flooding": 0.97}``).
    """

    experiment_id: str
    title: str
    params: Dict[str, Any] = field(default_factory=dict)
    tables: List[Table] = field(default_factory=list)
    derived: Dict[str, float] = field(default_factory=dict)

    def format(self) -> str:
        """Render the whole result for terminal output."""
        parts = [f"=== {self.experiment_id}: {self.title} ==="]
        if self.params:
            rendered = ", ".join(
                f"{k}={v}" for k, v in sorted(self.params.items())
            )
            parts.append(f"params: {rendered}")
        for table in self.tables:
            parts.append("")
            parts.append(table.format())
        if self.derived:
            parts.append("")
            parts.append("derived:")
            for key in sorted(self.derived):
                parts.append(f"  {key} = {self.derived[key]:.4g}")
        return "\n".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "params": self.params,
            "tables": [t.to_dict() for t in self.tables],
            "derived": self.derived,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            experiment_id=data["experiment_id"],
            title=data["title"],
            params=dict(data.get("params", {})),
            tables=[Table.from_dict(t) for t in data.get("tables", [])],
            derived=dict(data.get("derived", {})),
        )


def save_result(
    result: ExperimentResult, path: Union[str, os.PathLike]
) -> None:
    """Write an experiment record as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_result(path: Union[str, os.PathLike]) -> ExperimentResult:
    """Read an experiment record written by :func:`save_result`."""
    with open(path, "r", encoding="utf-8") as handle:
        return ExperimentResult.from_dict(json.load(handle))
