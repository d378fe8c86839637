"""The trial protocol: the unit of work the runner schedules.

A *trial* is one pure Monte-Carlo cell of an experiment grid — build a
graph, run searches on it, fit one specimen — identified entirely by a
:class:`TrialSpec`.  Purity is the load-bearing property: a trial's
value must be a function of its spec alone (no shared RNG state, no
globals), which is what makes the parallel backend bit-identical to the
serial one and lets the on-disk store replay completed cells.

Trial functions are referenced by ``"module:qualname"`` strings rather
than function objects so specs pickle cleanly into worker processes and
hash stably into cache keys.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Tuple

from repro.errors import ExperimentError

__all__ = [
    "TrialSpec",
    "TrialResult",
    "TrialExecutionError",
    "trial_ref",
    "resolve_trial",
    "params_hash",
]


def trial_ref(function: Callable[..., Any]) -> str:
    """The ``"module:qualname"`` reference of a top-level function.

    Only importable, top-level functions can serve as trial functions
    (workers and cache replays re-resolve them by name).
    """
    qualname = function.__qualname__
    if "." in qualname or "<" in qualname:
        raise ExperimentError(
            "trial functions must be top-level module functions "
            f"(got qualname {qualname!r})"
        )
    return f"{function.__module__}:{qualname}"


def resolve_trial(reference: str) -> Callable[..., Any]:
    """Inverse of :func:`trial_ref`: import and return the function."""
    module_name, _, attribute = reference.partition(":")
    if not module_name or not attribute:
        raise ExperimentError(
            f"malformed trial reference {reference!r}; "
            "expected 'module:function'"
        )
    try:
        module = importlib.import_module(module_name)
        function = getattr(module, attribute)
    except (ImportError, AttributeError) as error:
        raise ExperimentError(
            f"cannot resolve trial reference {reference!r}: {error}"
        ) from error
    if not callable(function):
        raise ExperimentError(
            f"trial reference {reference!r} is not callable"
        )
    return function


def params_hash(trial: str, params: Mapping[str, Any]) -> str:
    """Stable content hash of a trial's identity and parameters.

    Canonical-JSON based (sorted keys, fixed separators) so dict
    insertion order never changes the key; tuples and lists hash
    identically because JSON has only arrays.
    """
    payload = json.dumps(
        {"trial": trial, "params": params},
        sort_keys=True,
        separators=(",", ":"),
        default=_canonicalize,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _canonicalize(value: Any) -> Any:
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(
        f"trial params must be JSON-serializable, got "
        f"{type(value).__name__}"
    )


@dataclass(frozen=True)
class TrialSpec:
    """One schedulable unit of experiment work.

    Attributes
    ----------
    experiment_id:
        The experiment this trial belongs to (``"E1"`` ...); the first
        component of the cache key.
    trial:
        ``"module:qualname"`` reference to a pure top-level function
        called as ``fn(**params, seed=seed)``.
    params:
        JSON-serializable keyword arguments (everything but the seed).
    seed:
        The derived per-trial seed.  Callers derive it with
        :func:`repro.rng.substream` from the experiment seed, which is
        what keeps parallel output bit-identical to serial.
    """

    experiment_id: str
    trial: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0

    def key(self) -> Tuple[str, str, int]:
        """The store key ``(experiment_id, params_hash, seed)``.

        Computed once per spec: the params hash is a canonical-JSON
        sha256, and a cached trial is asked for its key at least twice
        (the replay scan, then the store write on a miss) — at
        100k-trial replay volumes the rehash was a measurable slice of
        warm wall clock.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = (
                self.experiment_id,
                params_hash(self.trial, self.params),
                self.seed,
            )
            # Frozen dataclass: memoize past the setattr guard.  The
            # cache rides along when specs pickle into workers.
            object.__setattr__(self, "_key", cached)
        return cached

    def execute(self) -> Any:
        """Run the trial in the current process."""
        function = resolve_trial(self.trial)
        return function(**dict(self.params), seed=self.seed)


@dataclass(frozen=True)
class TrialResult:
    """A completed trial: its spec, its value, and where it came from.

    ``value`` must be JSON-serializable (the store round-trips it);
    ``from_cache`` distinguishes replayed cells from fresh computation.
    """

    spec: TrialSpec
    value: Any
    from_cache: bool = False


class TrialExecutionError(ExperimentError):
    """A trial raised; carries the failing spec for diagnosis.

    Attributes
    ----------
    spec:
        The :class:`TrialSpec` whose execution failed.
    """

    def __init__(
        self,
        spec: TrialSpec,
        cause: BaseException,
        note: Optional[str] = None,
    ):
        self.spec = spec
        message = (
            f"trial {spec.trial} failed for experiment "
            f"{spec.experiment_id} (seed={spec.seed}, "
            f"params={dict(spec.params)!r}): "
            f"{type(cause).__name__}: {cause}"
        )
        if note:
            message = f"{message} [{note}]"
        super().__init__(message)
