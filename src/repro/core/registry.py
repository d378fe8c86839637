"""Declarative experiment registry and the unified execution context.

Every experiment runs through one entry point,
:func:`run_experiment` (equivalently ``REGISTRY[id].run``), built from
three declarative pieces:

* :class:`Param` — one typed experiment parameter (name, CLI coercion
  rule, default).  The types double as the ``repro run --set
  key=value`` parsers, so *every* experiment gets generic typed
  overrides for free.
* :class:`ExperimentSpec` — one experiment: id, title, its param
  schema, and the **capabilities** it declares from
  :data:`CAPABILITIES` (``jobs``, ``cache``, ``mode``).  Capabilities
  are data, not signatures: the CLI derives its capability matrix and
  its "flag has no effect" warnings from them, and a new axis lands in
  exactly one place.  Each axis changes either where work runs or
  what is computed.
* :class:`ExecutionContext` — the resolved execution axes carried
  *once* per run.  Bodies receive it as their first argument and ask
  it to dispatch work (:meth:`ExecutionContext.run_trials`,
  :meth:`ExecutionContext.measure_scaling`,
  :meth:`ExecutionContext.measure_search_cost`) instead of forwarding
  copy-pasted kwargs to every call.

:meth:`ExperimentSpec.run` also builds the
:class:`~repro.core.results.ExperimentResult` shell (id, title and the
resolved params) and passes it as the body's second argument; a body
adds only its tables, derived values and any extra params.

Experiment bodies register with :meth:`Registry.register`.  The search
engine and the graph generator are not axes: trials pick the fastest
available arm (:func:`repro.core.trials.fastest_available`), and every
arm gives the same numbers.  Nor is the graph form: every realisation
is searched as a frozen CSR snapshot.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.results import ExperimentResult
from repro.errors import ExperimentError
from repro.runner import TrialSpec, TrialStore, run_trials, store_for

__all__ = [
    "CAPABILITIES",
    "CAPABILITY_PARAMS",
    "ParamType",
    "INT",
    "FLOAT",
    "STR",
    "INT_TUPLE",
    "FLOAT_TUPLE",
    "Param",
    "ExecutionContext",
    "ExperimentSpec",
    "Registry",
    "REGISTRY",
    "run_experiment",
]

#: The execution axes an experiment may declare, in canonical order.
CAPABILITIES = ("jobs", "cache", "mode")

#: Capability -> (public keyword parameter, default value).  ``cache``
#: surfaces as ``cache_dir`` because the public unit is a directory;
#: the context resolves it to a :class:`TrialStore` exactly once.
CAPABILITY_PARAMS = {
    "jobs": ("jobs", 1),
    "cache": ("cache_dir", None),
    "mode": ("mode", "independent"),
}

# Every execution keyword :func:`run_experiment` accepts.
_CONTEXT_PARAMS = tuple(
    parameter for parameter, _ in CAPABILITY_PARAMS.values()
)


@dataclass(frozen=True)
class ParamType:
    """A CLI-facing parameter type: a label plus a text parser.

    ``parse`` turns the ``value`` half of ``--set key=value`` into the
    Python value an experiment body receives; ``label`` names the type
    in error messages and the ``repro list`` schema column.
    """

    label: str
    parse: Callable[[str], Any]


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_int_tuple(text: str) -> Tuple[int, ...]:
    return tuple(
        int(token, 10) for token in text.split(",") if token.strip()
    )


def _parse_float_tuple(text: str) -> Tuple[float, ...]:
    return tuple(
        float(token) for token in text.split(",") if token.strip()
    )


INT = ParamType("int", _parse_int)
FLOAT = ParamType("float", float)
STR = ParamType("str", str)
INT_TUPLE = ParamType("ints", _parse_int_tuple)
FLOAT_TUPLE = ParamType("floats", _parse_float_tuple)


@dataclass(frozen=True)
class Param:
    """One declared experiment parameter: name, type, default."""

    name: str
    type: ParamType
    default: Any
    doc: str = ""

    def coerce(self, text: str) -> Any:
        """Parse a ``--set`` value for this parameter."""
        try:
            return self.type.parse(text)
        except (ValueError, TypeError):
            raise ExperimentError(
                f"cannot parse {text!r} as {self.type.label} for "
                f"parameter {self.name!r}"
            ) from None


@dataclass(frozen=True)
class ExecutionContext:
    """The resolved execution axes of one experiment run.

    Carries ``jobs``/``store``/``mode`` (and the owning
    ``experiment_id``) exactly once, resolved from the declared
    capability defaults plus any caller overrides.  Experiment bodies
    dispatch through the helper methods instead of re-plumbing the
    axes into every call, so an axis added here reaches every
    experiment at once.
    """

    experiment_id: str = "adhoc"
    jobs: int = 1
    store: Optional[TrialStore] = None
    mode: str = "independent"

    def run_trials(self, specs: Sequence[TrialSpec]) -> list:
        """Dispatch trial specs through the runner with this context's
        worker fan-out and result store."""
        return run_trials(specs, jobs=self.jobs, store=self.store)

    def measure_scaling(self, family, sizes, factories, **kwargs):
        """A size sweep through this context's execution axes.

        Delegates to :func:`repro.core.searchability.measure_scaling`
        with ``jobs``/``store``/``mode`` and the
        experiment id filled in from the context (callers may still
        override ``mode`` explicitly, as E19 does to pin its subject).
        """
        from repro.core.searchability import measure_scaling

        kwargs.setdefault("mode", self.mode)
        return measure_scaling(
            family,
            sizes,
            factories,
            jobs=self.jobs,
            store=self.store,
            experiment_id=self.experiment_id,
            **kwargs,
        )

    def measure_search_cost(self, family, size, factories, **kwargs):
        """One cost cell through this context's execution axes."""
        from repro.core.searchability import measure_search_cost

        return measure_search_cost(
            family,
            size,
            factories,
            jobs=self.jobs,
            store=self.store,
            experiment_id=self.experiment_id,
            **kwargs,
        )


def _validated_context_values(
    capabilities: Mapping[str, Any], values: Dict[str, Any]
) -> Dict[str, Any]:
    """Resolve capability overrides against declared defaults.

    ``values`` maps capability -> requested value or ``None`` (not
    given).  Requesting a value for an undeclared capability is an
    error here — the CLI warns *before* reaching this point, so an
    error arriving from the Python API is a genuine caller bug.
    """
    resolved: Dict[str, Any] = {}
    for capability, requested in values.items():
        declared = capability in capabilities
        if requested is None:
            if declared:
                resolved[capability] = capabilities[capability]
            continue
        if not declared:
            parameter = CAPABILITY_PARAMS[capability][0]
            raise ExperimentError(
                f"this experiment declares no {capability!r} "
                f"capability; the {parameter!r} argument does not "
                "apply"
            )
        resolved[capability] = requested
    return resolved


def _validate_axis_values(resolved: Dict[str, Any]) -> None:
    """Check mode/jobs values against their axis vocabularies (the
    store layout is checked where the store opens)."""
    from repro.core.searchability import MODES

    mode = resolved.get("mode")
    if mode is not None and mode not in MODES:
        raise ExperimentError(
            f"unknown mode {mode!r}; valid: {', '.join(MODES)}"
        )
    jobs = resolved.get("jobs")
    if jobs is not None and (not isinstance(jobs, int) or jobs < 1):
        raise ExperimentError(f"jobs must be an int >= 1, got {jobs!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: schema, capabilities, and body.

    ``capabilities`` maps declared capability names (a subset of
    :data:`CAPABILITIES`) to their *default* values — e.g. E19 declares
    ``mode`` with default ``'trajectory'`` because coupled trajectories
    are its subject.  ``body`` is called as ``body(ctx, result,
    **params)``, where ``result`` is the shell :meth:`run` builds; the
    body fills it in place and its return value is ignored.
    """

    id: str
    title: str
    params: Tuple[Param, ...]
    capabilities: Mapping[str, Any]
    body: Callable[..., Any]

    @property
    def param_names(self) -> Tuple[str, ...]:
        """Declared parameter names, in declaration order."""
        return tuple(param.name for param in self.params)

    def param(self, name: str) -> Param:
        """The declared :class:`Param` called ``name``."""
        for param in self.params:
            if param.name == name:
                return param
        raise ExperimentError(
            f"{self.id} takes no parameter {name!r}; valid: "
            f"{', '.join(self.param_names) or '(none)'}"
        )

    def default_params(self) -> Dict[str, Any]:
        """Name -> default for every declared parameter."""
        return {param.name: param.default for param in self.params}

    def make_context(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        mode: Optional[str] = None,
    ) -> ExecutionContext:
        """Resolve execution-axis overrides into an :class:`ExecutionContext`.

        ``None`` means "not requested": declared capabilities fall back
        to their declared defaults, undeclared ones to the context
        defaults.  A non-``None`` value for an undeclared capability
        raises (the CLI filters those into warnings first).
        """
        resolved = _validated_context_values(
            self.capabilities,
            {"jobs": jobs, "cache": cache_dir, "mode": mode},
        )
        _validate_axis_values(resolved)
        kwargs: Dict[str, Any] = {"experiment_id": self.id}
        if "jobs" in resolved:
            kwargs["jobs"] = resolved["jobs"]
        if "cache" in resolved:
            kwargs["store"] = store_for(resolved["cache"])
        if "mode" in resolved:
            kwargs["mode"] = resolved["mode"]
        return ExecutionContext(**kwargs)

    def resolve_params(
        self, overrides: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Merge ``overrides`` into the declared defaults, validated."""
        merged = self.default_params()
        for name, value in dict(overrides or {}).items():
            self.param(name)  # raises on unknown names
            merged[name] = value
        return merged

    def run(
        self,
        overrides: Optional[Mapping[str, Any]] = None,
        *,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        mode: Optional[str] = None,
    ) -> ExperimentResult:
        """Execute the experiment body with resolved params + context.

        The result shell carries the spec's id and title and the
        resolved params, sequences as lists (as JSON gives them back),
        plus ``mode`` when the spec declares that capability.
        """
        params = self.resolve_params(overrides)
        context = self.make_context(
            jobs=jobs,
            cache_dir=cache_dir,
            mode=mode,
        )
        result = ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            params={
                name: list(value)
                if isinstance(value, (tuple, list))
                else value
                for name, value in params.items()
            },
        )
        if "mode" in self.capabilities:
            result.params["mode"] = context.mode
        self.body(context, result, **params)
        return result


def _normalized_capabilities(
    experiment_id: str,
    capabilities: Sequence[Union[str, Tuple[str, Any]]],
) -> Dict[str, Any]:
    """Capability declarations -> ordered ``{capability: default}``.

    Entries are either a bare capability name (axis default) or a
    ``(name, default)`` pair; the result is ordered canonically per
    :data:`CAPABILITIES` regardless of declaration order.
    """
    declared: Dict[str, Any] = {}
    for entry in capabilities:
        if isinstance(entry, str):
            name, default = entry, None
        else:
            name, default = entry
        if name not in CAPABILITY_PARAMS:
            raise ExperimentError(
                f"{experiment_id}: unknown capability {name!r}; "
                f"valid: {', '.join(CAPABILITIES)}"
            )
        if name in declared:
            raise ExperimentError(
                f"{experiment_id}: capability {name!r} declared twice"
            )
        declared[name] = (
            CAPABILITY_PARAMS[name][1] if default is None else default
        )
    return {
        name: declared[name]
        for name in CAPABILITIES
        if name in declared
    }


class Registry:
    """An ordered collection of :class:`ExperimentSpec` objects.

    The process-wide instance is :data:`REGISTRY`; tests build private
    instances to exercise the CLI against synthetic experiments.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, ExperimentSpec] = {}

    def register(
        self,
        experiment_id: str,
        *,
        title: str,
        params: Sequence[Param] = (),
        capabilities: Sequence[Union[str, Tuple[str, Any]]] = (),
    ) -> Callable[[Callable], Callable]:
        """Decorator: register a body function as an experiment spec.

        Validates at import time that the body's keyword parameters
        are exactly the declared ``params`` (after the leading context
        and result arguments), so schema and implementation cannot
        drift.
        """

        def decorate(body: Callable) -> Callable:
            declared = _normalized_capabilities(
                experiment_id, capabilities
            )
            spec = ExperimentSpec(
                id=experiment_id,
                title=title,
                params=tuple(params),
                capabilities=declared,
                body=body,
            )
            names = spec.param_names
            if len(set(names)) != len(names):
                raise ExperimentError(
                    f"{experiment_id}: duplicate parameter names"
                )
            clash = set(_CONTEXT_PARAMS).intersection(names)
            if clash:
                raise ExperimentError(
                    f"{experiment_id}: parameter names "
                    f"{sorted(clash)} collide with capability "
                    "parameters"
                )
            signature = inspect.signature(body)
            body_params = list(signature.parameters)
            if tuple(body_params[2:]) != names:
                raise ExperimentError(
                    f"{experiment_id}: body takes "
                    f"{body_params[2:]} but the spec declares "
                    f"{list(names)}"
                )
            self.add(spec)
            return body

        return decorate

    def add(self, spec: ExperimentSpec) -> None:
        """Insert (or replace) a spec under its id."""
        self._specs[spec.id] = spec

    def get(self, experiment_id: str) -> ExperimentSpec:
        """The spec for ``experiment_id``, or a listing error."""
        try:
            return self._specs[experiment_id]
        except KeyError:
            raise ExperimentError(
                f"unknown experiment {experiment_id!r}; valid: "
                f"{', '.join(self.ids())}"
            ) from None

    def ids(self) -> List[str]:
        """Registered ids in numeric order (E1, E2, ..., E20)."""
        return sorted(self._specs, key=_id_sort_key)

    def specs(self) -> List[ExperimentSpec]:
        """Registered specs in :meth:`ids` order."""
        return [self._specs[i] for i in self.ids()]

    def capability_matrix(self) -> Dict[str, Tuple[str, ...]]:
        """Id -> declared capabilities, both in canonical order."""
        return {
            spec.id: tuple(spec.capabilities) for spec in self.specs()
        }

    def __contains__(self, experiment_id: str) -> bool:
        return experiment_id in self._specs

    def __getitem__(self, experiment_id: str) -> ExperimentSpec:
        return self.get(experiment_id)

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return iter(self.specs())

    def __len__(self) -> int:
        return len(self._specs)


def _id_sort_key(experiment_id: str):
    head = experiment_id.rstrip("0123456789")
    tail = experiment_id[len(head):]
    return (head, int(tail) if tail else -1)


#: The process-wide registry; populated by importing
#: :mod:`repro.core.experiments`.
REGISTRY = Registry()


def run_experiment(experiment_id: str, **kwargs):
    """Run a registered experiment from flat keyword arguments.

    The one way to run an experiment from Python, e.g.
    ``run_experiment("E1", sizes=(200, 400), jobs=2)``: ``kwargs`` may
    mix declared experiment parameters with the capability parameters
    the spec declares (``jobs``, ``cache_dir``, ``mode``); they are
    split per the spec
    and dispatched via :meth:`ExperimentSpec.run`.  Omitted parameters
    take their registered defaults.
    """
    spec = REGISTRY.get(experiment_id)
    context_kwargs: Dict[str, Any] = {}
    for parameter in _CONTEXT_PARAMS:
        if parameter in kwargs:
            context_kwargs[parameter] = kwargs.pop(parameter)
    return spec.run(kwargs, **context_kwargs)
