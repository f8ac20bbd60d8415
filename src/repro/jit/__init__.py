"""``repro.jit`` — the compiled execution backend and backend registry.

Two ways to run the same machine:

Both run :class:`~repro.machine.processor.Processor`'s one burst loop,
which calls the function behind each pc; they differ only in what that
function is.

* ``interpreter`` — :meth:`~repro.machine.processor.Processor._burst`
  behind every pc: decode as you go.  No compile step, lowest latency
  to first cycle; the reference semantics.
* ``compiled`` — per-block Python functions generated by
  :mod:`repro.jit.codegen`.  Compiles code when a run first reaches it,
  each region about once per process for every distinct program content
  and machine variant, then executes with operands and model decisions
  pre-resolved; at the deadline or a busy register a block stops, and
  the burst loop decides pause or switch.  Compiling costs far more
  than executing a block does, so on short runs it is still close to
  half the time (0.45 of the traced tiny reproduction's simulate
  time).  Traced and
  switch-every-cycle runs keep the interpreter's function.
  Bit-identical SimStats by contract (pinned by
  ``tests/test_jit_equivalence.py``).
* ``auto`` — resolves to ``compiled`` (every model/feature is supported;
  the alias exists so callers can opt into "fastest available" without
  naming it).

Backend names are deliberately **not** part of result identity: a
:class:`~repro.engine.spec.RunSpec`'s cache key ignores its ``backend``
field, so a warm interpreter cache serves compiled requests and vice
versa.
"""

from __future__ import annotations

from typing import Dict, List

from repro.jit.codegen import (
    MAX_EMIT,
    CompiledProgram,
    compile_seconds_for,
    compiled_for,
)

#: The default backend when nothing is requested anywhere.
DEFAULT_BACKEND = "interpreter"

#: name -> one-line description (the stable public registry).
BACKENDS: Dict[str, str] = {
    "interpreter": "reference burst interpreter (decode every instruction)",
    "compiled": "pre-decoded per-block execution via repro.jit codegen",
    "auto": "alias: pick the fastest available backend (compiled)",
}


def resolve_backend(name) -> str:
    """Normalize a backend request to a concrete backend name.

    ``None`` means "no preference" and resolves to the default;
    ``auto`` resolves to the compiled backend.  Anything else must be a
    registered name — unknown spellings raise ``ValueError`` early, at
    the API surface, instead of deep inside a worker process.
    """
    if name is None:
        return DEFAULT_BACKEND
    if name not in BACKENDS:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown backend {name!r} (choose from: {known})")
    if name == "auto":
        return "compiled"
    return name


def backend_info() -> List[Dict]:
    """Name + availability + description for every registered backend
    (the payload behind :func:`repro.api.backends`)."""
    return [
        {
            "name": name,
            "available": True,
            "default": name == DEFAULT_BACKEND,
            "description": description,
        }
        for name, description in BACKENDS.items()
    ]


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "MAX_EMIT",
    "CompiledProgram",
    "backend_info",
    "compile_seconds_for",
    "compiled_for",
    "resolve_backend",
]
