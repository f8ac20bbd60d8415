"""Strict validation of client-supplied fault/lifecycle spec payloads.

:meth:`FaultConfig.from_dict` is deliberately lenient — it ignores
unknown keys so old payloads keep loading — but a *service* should not
silently drop a typo'd chaos knob (``"los_rate"``) or let a malformed
value surface as a 500 from deep inside a dataclass constructor.  This
module lifts the curl-friendly ``{"faults": {...}}`` mapping of
``POST /v1/jobs`` into a :class:`~repro.faults.config.FaultConfig`
strictly: unknown keys, wrong types and out-of-range values all raise
:class:`SpecValidationError` naming the offending key, which the HTTP
layer answers with a structured 400, as it does a spec that
:func:`check_servable` finds no run could serve.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.apps.registry import get_app
from repro.engine.spec import RunSpec
from repro.faults.config import FaultConfig, LifecycleConfig
from repro.harness.sizes import sizes_for

#: Most threads (processors × level) one served spec may ask for.  The
#: reproduction's largest machine has 192 (sieve P16 M12, Figure 3); a
#: run builds one thread context per thread inside the server.
MAX_SERVED_THREADS = 256

#: Fields accepting floats (ints coerce fine); everything else numeric
#: is integer-only.
_FLOAT_FIELDS = frozenset(
    ("loss_rate", "delay_rate", "degraded_scale")
)
#: Fields that are not plain numbers.
_STRING_FIELDS = frozenset(("latency_model",))
_OPTIONAL_INT_FIELDS = frozenset(("affected",))
_NESTED_FIELDS = frozenset(("lifecycle",))


class SpecValidationError(ValueError):
    """A client spec payload was rejected; ``key`` names the offending
    field when one can be identified."""

    def __init__(self, message: str, key: Optional[str] = None):
        super().__init__(message)
        self.key = key


def _offending_key(message: str, names) -> Optional[str]:
    """Best-effort mapping of a dataclass ``ValueError`` message back to
    the field it complains about (constructor messages lead with the
    field name, e.g. ``"loss_rate must be in [0, 1]"`` — when several
    fields appear, the earliest mention is the subject)."""
    hits = [(message.find(name), name) for name in names if name in message]
    if hits:
        return min(hits)[1]
    if "latency model" in message:
        return "latency_model"
    return None


def _check_fields(mapping: Dict, cls, what: str) -> None:
    names = {field.name for field in dataclasses.fields(cls)}
    for key, value in mapping.items():
        if key not in names:
            raise SpecValidationError(
                f"unknown {what} field {key!r}", key=key
            )
        if key in _NESTED_FIELDS:
            continue  # validated recursively
        if key in _STRING_FIELDS:
            if not isinstance(value, str):
                raise SpecValidationError(
                    f"{what} field {key!r} must be a string", key=key
                )
            continue
        if value is None and key in _OPTIONAL_INT_FIELDS:
            continue
        if isinstance(value, bool) or not isinstance(
            value, (int, float) if key in _FLOAT_FIELDS else int
        ):
            kind = "a number" if key in _FLOAT_FIELDS else "an integer"
            raise SpecValidationError(
                f"{what} field {key!r} must be {kind}, "
                f"got {type(value).__name__}",
                key=key,
            )


def validate_lifecycle_spec(mapping) -> LifecycleConfig:
    """Lift a client-supplied lifecycle mapping strictly."""
    if not isinstance(mapping, dict):
        raise SpecValidationError(
            "lifecycle must be a JSON object", key="lifecycle"
        )
    _check_fields(mapping, LifecycleConfig, "lifecycle")
    try:
        return LifecycleConfig(**mapping)
    except ValueError as error:
        names = [field.name for field in dataclasses.fields(LifecycleConfig)]
        raise SpecValidationError(
            str(error), key=_offending_key(str(error), names)
        ) from None


def validate_fault_spec(mapping) -> FaultConfig:
    """Lift a client-supplied ``faults`` mapping strictly (unknown keys,
    wrong types and out-of-range values are rejected with the offending
    key attached, instead of being dropped or surfacing as a 500)."""
    if not isinstance(mapping, dict):
        raise SpecValidationError("faults must be a JSON object", key="faults")
    _check_fields(mapping, FaultConfig, "fault")
    kwargs = dict(mapping)
    if kwargs.get("lifecycle") is not None:
        kwargs["lifecycle"] = validate_lifecycle_spec(kwargs["lifecycle"])
    try:
        return FaultConfig(**kwargs)
    except ValueError as error:
        names = [field.name for field in dataclasses.fields(FaultConfig)]
        raise SpecValidationError(
            str(error), key=_offending_key(str(error), names)
        ) from None


def check_servable(spec: RunSpec) -> None:
    """Refuse *spec* unless its application, its sizes at its scale and
    its machine all resolve, and it asks for at most
    :data:`MAX_SERVED_THREADS` threads.  Nothing is built."""
    if spec.total_threads > MAX_SERVED_THREADS:
        raise SpecValidationError(
            f"{spec.total_threads} threads (processors x level); "
            f"at most {MAX_SERVED_THREADS} are served"
        )
    if not isinstance(spec.app, str):
        raise SpecValidationError("app must be a string", key="app")
    key = "app"
    try:
        get_app(spec.app)
        key = "scale"
        sizes_for(spec.app, spec.scale)
    except KeyError as error:
        raise SpecValidationError(error.args[0], key=key) from None
    try:
        spec.machine_config()
    except (TypeError, ValueError) as error:
        key = _offending_key(str(error), [name for name, _ in spec.overrides])
        raise SpecValidationError(str(error), key=key) from None
