"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can write a single ``except ReproError``
around any library call without accidentally swallowing genuine bugs
(``TypeError``, ``KeyError`` from our own code, ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphConstructionError",
    "InvalidParameterError",
    "OracleProtocolError",
    "SearchError",
    "AnalysisError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidParameterError(ReproError, ValueError):
    """A model or algorithm parameter is outside its valid range.

    Also a :class:`ValueError` so that generic parameter-validation
    call sites behave idiomatically.
    """


class GraphConstructionError(ReproError):
    """A random-graph construction could not be carried out."""


class OracleProtocolError(ReproError):
    """A search process violated the weak/strong oracle protocol.

    Raised, for example, when a weak-model request names an edge that is
    not incident to an already-discovered vertex: the oracle refuses to
    answer rather than leak information the model does not grant.
    """


class SearchError(ReproError):
    """A search algorithm reached an internally inconsistent state."""


class AnalysisError(ReproError):
    """A statistical analysis could not be performed on the given data."""


class ExperimentError(ReproError):
    """An experiment specification is inconsistent or a run failed."""

