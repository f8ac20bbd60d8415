"""Machine configuration dataclasses.

The defaults reproduce the paper's simulated machine: a constant 200-cycle
round-trip latency to shared memory, ordered delivery, zero-cost context
switches for opcode-identified switch points, and (for the cached models of
Section 6) a per-processor shared-data cache kept coherent by a full-map
write-invalidate directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Optional

from repro.faults.config import FaultConfig
from repro.machine.models import SwitchModel

#: Canonical names for the keyword spellings that historically diverged
#: between :class:`MachineConfig` (``num_processors``/``threads_per_processor``)
#: and the harness/CLI (``processors``/``level``).  Everything new goes
#: through :func:`normalize_config_kwargs` so both spellings are accepted
#: and exactly one survives.
_KWARG_ALIASES: Dict[str, str] = {
    "processors": "num_processors",
    "level": "threads_per_processor",
    "threads": "threads_per_processor",
}


def normalize_config_kwargs(kwargs: Dict) -> Dict:
    """Map alias keyword spellings onto the canonical dataclass fields.

    ``processors`` -> ``num_processors`` and ``level`` (or ``threads``)
    -> ``threads_per_processor``.  Supplying an alias *and* its canonical
    form is ambiguous and raises ``TypeError``.
    """
    normalized = dict(kwargs)
    for alias, canonical in _KWARG_ALIASES.items():
        if alias in normalized:
            if canonical in normalized:
                raise TypeError(
                    f"got both {alias!r} and {canonical!r}; pass exactly one"
                )
            normalized[canonical] = normalized.pop(alias)
    return normalized


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """Per-processor shared-data cache geometry.

    The paper does not publish its main cache geometry; these defaults are
    our documented assumption (see DESIGN.md §2).  ``line_words`` is in
    32-bit words; the total capacity defaults to 64 sets x 4 ways x 8
    words = 2048 words per processor.
    """

    num_sets: int = 64
    assoc: int = 4
    line_words: int = 8

    def __post_init__(self) -> None:
        if self.num_sets < 1 or self.assoc < 1:
            raise ValueError("cache must have at least one set and one way")
        if self.line_words < 1 or self.line_words & (self.line_words - 1):
            raise ValueError("line_words must be a positive power of two")

    @property
    def total_words(self) -> int:
        return self.num_sets * self.assoc * self.line_words


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    """Message-size parameters for the bandwidth accounting of Section 6.1.

    The network itself is not simulated (constant latency, as in the
    paper); these sizes only feed the bits-per-cycle bandwidth table.
    """

    header_bits: int = 32
    addr_bits: int = 32
    word_bits: int = 32
    ack_bits: int = 32  # return acknowledgement for writes / invalidations


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """Complete description of one simulated machine."""

    model: SwitchModel = SwitchModel.SWITCH_ON_LOAD
    num_processors: int = 1
    threads_per_processor: int = 1
    #: Round-trip shared-memory latency in cycles; requests reach memory
    #: after ``latency // 2`` cycles.  Ignored by the IDEAL model.
    latency: int = 200
    #: Wasted pipeline-flush cycles per taken switch, charged only by
    #: models with ``pays_flush_cost`` (switch-on-miss).
    switch_cost: int = 4
    #: Conditional-switch: force the next SWITCH after this many cycles of
    #: uninterrupted execution (Section 6.2's critical-section fix).
    #: ``0`` disables the mechanism.
    forced_switch_interval: int = 200
    #: Maximum cycles a thread may run inside one simulation event before
    #: the event engine re-synchronises global state (pure simulation
    #: mechanics — costs no simulated cycles).
    burst_limit: int = 256
    cache: Optional[CacheConfig] = None
    network: NetworkConfig = dataclasses.field(default_factory=NetworkConfig)
    #: Section 5.2 estimator: give each thread a one-line 32-word cache;
    #: non-sync shared loads that hit it are treated as if an inter-block
    #: compiler had grouped them with the preceding reference (no network
    #: transaction, no wait).  Meaningful with EXPLICIT_SWITCH, where a
    #: SWITCH is then only taken when a real load is outstanding.
    interblock_oracle: bool = False
    #: Deterministic latency jitter: each value-returning transaction's
    #: round trip becomes ``latency + U[0, latency_jitter]`` (a hash of
    #: the issue time and address — reproducible).  The paper models a
    #: constant latency but notes real networks "can also have a large
    #: variance"; this knob probes that.  Jitter breaks ordered delivery,
    #: under which round-robin scheduling is optimal (Section 3).
    latency_jitter: int = 0
    #: Fault injection (see :mod:`repro.faults`): non-constant latency
    #: models and transient reply loss/delay with NACK/retry recovery.
    #: ``None`` — and any *inert* :class:`~repro.faults.config.FaultConfig`
    #: — reproduces the plain machine bit for bit.
    faults: Optional[FaultConfig] = None
    #: Safety valve: abort the simulation after this many cycles.
    max_cycles: int = 2_000_000_000

    def __post_init__(self) -> None:
        if self.num_processors < 1:
            raise ValueError("need at least one processor")
        if self.threads_per_processor < 1:
            raise ValueError("need at least one thread per processor")
        if self.latency < 0 or self.latency % 2:
            raise ValueError("latency must be a non-negative even cycle count")
        if self.burst_limit < 1:
            raise ValueError("burst_limit must be positive")
        if self.model.uses_cache and self.cache is None:
            object.__setattr__(self, "cache", CacheConfig())

    @property
    def total_threads(self) -> int:
        return self.num_processors * self.threads_per_processor

    #: Alias properties for the harness/CLI spellings (see
    #: :func:`normalize_config_kwargs`).
    @property
    def processors(self) -> int:
        return self.num_processors

    @property
    def level(self) -> int:
        return self.threads_per_processor

    @classmethod
    def create(cls, **kwargs) -> "MachineConfig":
        """Construct a config accepting either keyword spelling
        (``processors``/``num_processors``, ``level``/``threads_per_processor``)."""
        return cls(**normalize_config_kwargs(kwargs))

    def replace(self, **changes) -> "MachineConfig":
        """Convenience wrapper around :func:`dataclasses.replace`
        (alias spellings accepted)."""
        return dataclasses.replace(self, **normalize_config_kwargs(changes))

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe dictionary; inverse of :meth:`from_dict`."""
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name == "model":
                value = value.value
            elif field.name in ("cache", "network", "faults"):
                value = dataclasses.asdict(value) if value is not None else None
            out[field.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "MachineConfig":
        data = dict(data)
        data["model"] = SwitchModel(data["model"])
        if data.get("cache") is not None:
            data["cache"] = CacheConfig(**data["cache"])
        if data.get("network") is not None:
            data["network"] = NetworkConfig(**data["network"])
        else:
            data.pop("network", None)
        if data.get("faults") is not None:
            data["faults"] = FaultConfig.from_dict(data["faults"])
        else:
            data.pop("faults", None)
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})

    def config_key(self) -> str:
        """Stable content hash of this configuration.

        Explicit, versioned hashing (canonical-JSON SHA-256 prefix) rather
        than dataclass ``hash()`` — the result is reproducible across
        processes and Python versions, which the on-disk result cache
        relies on.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
