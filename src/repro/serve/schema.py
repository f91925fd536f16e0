"""Schema-versioned request bodies for the study service.

Every request body carries an explicit ``{"schema": 1, ...}`` version;
a body the server cannot speak is rejected up front rather than half
interpreted.  Validation is field by field and *exhaustive*: a bad
request reports **every** offending field in one 400, not just the
first, so a client fixes its payload in one round trip.

The request vocabulary is deliberately a subset of
:class:`~repro.analysis.study.StudyConfig`: the execution substrate
(``executor``/``parallelism``) and the raw ``ecosystem_overrides``
escape hatch are *server-owned* — set by the operator's ``repro
serve`` flags — so a request can never change how much hardware it
gets, and an HTTP config always hashes to the same cache keys, run id
and digest as the equivalent ``repro study`` invocation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable

from repro.analysis.study import StudyConfig
from repro.sweep.spec import SweepSpec

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "StudyRequest",
    "SweepRequest",
    "parse_study_request",
    "parse_sweep_request",
]

#: The request-body schema this server speaks.  Bump on incompatible
#: vocabulary changes; old clients then get a typed 400, never a
#: silently reinterpreted request.
SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """A request body failed validation.

    ``errors`` lists every offending field as ``{"field", "message"}``
    dicts, ready to serialise into the 400 response body.
    """

    def __init__(self, errors: list[dict]) -> None:
        self.errors = errors
        summary = "; ".join(
            f"{error['field']}: {error['message']}" for error in errors
        )
        super().__init__(f"invalid request: {summary}")


@dataclass(frozen=True)
class StudyRequest:
    """One validated ``POST /v1/study`` body."""

    config: StudyConfig
    resume: bool = False


@dataclass(frozen=True)
class SweepRequest:
    """One validated ``POST /v1/sweep`` body."""

    spec: SweepSpec
    resume: bool = False


# ----------------------------------------------------------------------
# Field validators: each returns the coerced value or raises ValueError
# with a client-facing message.

def _int(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {type(value).__name__}")
    return value


def _float(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {type(value).__name__}")
    return float(value)


def _str(value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {type(value).__name__}")
    return value


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected a boolean, got {type(value).__name__}")
    return value


def _str_tuple(value: Any) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise ValueError(
            f"expected a list of strings, got {type(value).__name__}"
        )
    return tuple(value)


#: JSON validators by field type annotation.
_VALIDATORS: dict[str, Callable[[Any], Any]] = {
    "int": _int,
    "float": _float,
    "str": _str,
    "tuple[str, ...]": _str_tuple,
}

#: StudyConfig fields a request may NOT set (see module docstring).
_OWNED = frozenset(
    spec.name for spec in fields(StudyConfig)
    if spec.metadata["execution_only"] or spec.metadata["server_owned"]
)

#: Request-settable StudyConfig fields and their validators; a
#: request's sweep ``axes`` draw from the same set.
_SETTABLE = {
    spec.name: _VALIDATORS[spec.type] for spec in fields(StudyConfig)
    if spec.name not in _OWNED
}


def _check_schema(body: dict, errors: list[dict]) -> None:
    version = body.get("schema")
    if version is None:
        errors.append({
            "field": "schema",
            "message": f"missing; this server speaks schema {SCHEMA_VERSION}",
        })
    elif version != SCHEMA_VERSION:
        errors.append({
            "field": "schema",
            "message": f"unsupported version {version!r}; this server "
                       f"speaks schema {SCHEMA_VERSION}",
        })


def _study_kwargs(
    values: dict, errors: list[dict], *, prefix: str = ""
) -> dict:
    """Validate study-config fields, appending every error found."""
    kwargs: dict = {}
    for name, value in sorted(values.items(), key=lambda item: item[0]):
        label = f"{prefix}{name}"
        if name in _OWNED:
            errors.append({
                "field": label,
                "message": "server-owned; set via repro serve flags, "
                           "never per request",
            })
            continue
        validator = _SETTABLE.get(name)
        if validator is None:
            errors.append({
                "field": label,
                "message": f"unknown field; settable fields: "
                           f"{sorted(_SETTABLE)}",
            })
            continue
        try:
            kwargs[name] = validator(value)
        except ValueError as error:
            errors.append({"field": label, "message": str(error)})
    return kwargs


def parse_study_request(body: Any) -> StudyRequest:
    """Validate one ``POST /v1/study`` body into a :class:`StudyRequest`.

    Raises :class:`SchemaError` listing every bad field; a body that
    passes produces a :class:`StudyConfig` that has already survived
    :meth:`StudyConfig.validate`.
    """
    if not isinstance(body, dict):
        raise SchemaError([{
            "field": "(body)",
            "message": f"expected a JSON object, got {type(body).__name__}",
        }])
    errors: list[dict] = []
    _check_schema(body, errors)
    values = {
        name: value for name, value in body.items()
        if name not in ("schema", "resume")
    }
    resume = False
    if "resume" in body:
        try:
            resume = _bool(body["resume"])
        except ValueError as error:
            errors.append({"field": "resume", "message": str(error)})
    kwargs = _study_kwargs(values, errors)
    if errors:
        raise SchemaError(errors)
    config = StudyConfig(**kwargs)
    try:
        config.validate()
    except ValueError as error:
        raise SchemaError([{"field": "(config)", "message": str(error)}])
    return StudyRequest(config=config, resume=resume)


def parse_sweep_request(body: Any) -> SweepRequest:
    """Validate one ``POST /v1/sweep`` body into a :class:`SweepRequest`.

    The body carries ``base`` (study fields), ``seeds`` (a non-empty
    integer list) and ``axes`` (``{"field": [value, ...], ...}``); the
    expanded grid is validated cell by cell before anything runs.
    """
    if not isinstance(body, dict):
        raise SchemaError([{
            "field": "(body)",
            "message": f"expected a JSON object, got {type(body).__name__}",
        }])
    errors: list[dict] = []
    _check_schema(body, errors)
    unknown = set(body) - {"schema", "base", "seeds", "axes", "resume"}
    for name in sorted(unknown):
        errors.append({
            "field": name,
            "message": "unknown field; a sweep body carries schema, "
                       "base, seeds, axes and resume",
        })
    resume = False
    if "resume" in body:
        try:
            resume = _bool(body["resume"])
        except ValueError as error:
            errors.append({"field": "resume", "message": str(error)})

    base_kwargs: dict = {}
    base = body.get("base", {})
    if not isinstance(base, dict):
        errors.append({
            "field": "base",
            "message": f"expected a JSON object of study fields, got "
                       f"{type(base).__name__}",
        })
    else:
        base_kwargs = _study_kwargs(base, errors, prefix="base.")

    seeds: tuple[int, ...] = ()
    raw_seeds = body.get("seeds", [base_kwargs.get("seed", 7)])
    if not isinstance(raw_seeds, list) or not raw_seeds or not all(
        isinstance(seed, int) and not isinstance(seed, bool)
        for seed in raw_seeds
    ):
        errors.append({
            "field": "seeds",
            "message": "expected a non-empty list of integers",
        })
    else:
        seeds = tuple(raw_seeds)

    axes: list[tuple[str, tuple]] = []
    raw_axes = body.get("axes", {})
    if not isinstance(raw_axes, dict):
        errors.append({
            "field": "axes",
            "message": f"expected a JSON object mapping fields to value "
                       f"lists, got {type(raw_axes).__name__}",
        })
        raw_axes = {}
    for name, values in sorted(raw_axes.items(), key=lambda item: item[0]):
        label = f"axes.{name}"
        validator = _SETTABLE.get(name)
        if validator is None:
            message = (
                "server-owned; set via repro serve flags, never per request"
                if name in _OWNED else
                f"not sweepable over HTTP; choose from {sorted(_SETTABLE)}"
            )
            errors.append({"field": label, "message": message})
            continue
        if not isinstance(values, list) or not values:
            errors.append({
                "field": label,
                "message": "expected a non-empty list of values",
            })
            continue
        try:
            axes.append((name, tuple(validator(value) for value in values)))
        except ValueError as error:
            errors.append({"field": label, "message": str(error)})
    if errors:
        raise SchemaError(errors)
    try:
        spec = SweepSpec(
            base=StudyConfig(**base_kwargs), seeds=seeds, axes=tuple(axes)
        )
        spec.cells()  # validates every expanded cell config eagerly
    except ValueError as error:
        raise SchemaError([{"field": "(spec)", "message": str(error)}])
    return SweepRequest(spec=spec, resume=resume)
