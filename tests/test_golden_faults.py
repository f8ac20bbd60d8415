"""Faulted runs match the fault path they were pinned on.

``tests/data/golden_fault_stats.json`` pins every application under the
seven non-ideal switch models and three fault profiles (P=2, M=2, tiny
scale): the wall cycles, the sha256 of
:func:`~repro.check.canonical_stats`, and the fault counters, so a
failure says which counter moved.  It also pins the sha256 of the full
:class:`~repro.obs.RingTracer` event stream of nine traced cells under
reply loss.  ``golden_stats.json`` pins only fault-free runs, and the
backend-equivalence suite compares two backends that share the
simulator's fault path, so this fixture is what catches a change to how
lost, delayed and NACKed transactions are handled.

The fixture was produced at commit a830fcf, whose ``Simulator`` still
had one fault handler per transaction kind and whose ``Processor`` held
the backoff; both backends must reproduce it.  Regenerate it, only for
an intended change of faulted behaviour, with::

    PYTHONPATH=src python tests/test_golden_faults.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.registry import app_names
from repro.check import canonical_stats
from repro.engine.executor import _build
from repro.engine.spec import RunSpec
from repro.faults import FaultConfig, LifecycleConfig
from repro.machine import SwitchModel
from repro.obs import RingTracer
from repro.obs.events import event_to_record
from repro.runtime.execution import run_app
from sim_helpers import BACKENDS

FIXTURE = Path(__file__).parent / "data" / "golden_fault_stats.json"

APPS = app_names()
MODELS = [model.value for model in SwitchModel if model is not SwitchModel.IDEAL]

#: Reply loss and delay; an active component lifecycle (outage NACKs
#: that carry a recovery hint); and both at once on a jittered network.
PROFILES = {
    "loss": FaultConfig(loss_rate=0.03, delay_rate=0.05, delay_cycles=32, seed=11),
    "lifecycle": FaultConfig(
        seed=5,
        lifecycle=LifecycleConfig(
            components=2, seed=5, mean_healthy=600, mean_degraded=150,
            mean_failed=80, mean_repair=120,
        ),
    ),
    "mixed": FaultConfig(
        latency_model="uniform", jitter=80, loss_rate=0.01, seed=7,
        lifecycle=LifecycleConfig(
            components=4, seed=3, mean_healthy=2000, mean_degraded=300,
            mean_failed=150, mean_repair=200, degrade_stages=2,
        ),
    ),
}

#: Cells whose whole event stream is pinned: uncached loads and FAAs
#: (explicit-switch, conditional-switch) and line fills (switch-on-miss).
TRACED_APPS = ("sieve", "mp3d", "ugray")
TRACED_MODELS = ("explicit-switch", "conditional-switch", "switch-on-miss")
TRACED_PROFILE = "loss"

FAULT_COUNTERS = (
    "mem_issued",
    "mem_completed",
    "replies_dropped",
    "replies_delayed",
    "nacks",
    "retries",
    "backoff_cycles",
    "faa_replays",
)


def _run(app: str, model: str, profile: str, backend: str, tracer=None):
    spec = RunSpec.create(
        app, model=model, processors=2, level=2, scale="tiny",
        faults=PROFILES[profile],
    )
    built, program = _build(
        spec.app, spec.total_threads, spec.effective_code_model.value,
        spec.scale,
    )
    return run_app(built, spec.machine_config(), program=program,
                   tracer=tracer, backend=backend)


def cell_entry(app: str, model: str, profile: str, backend: str) -> dict:
    result = _run(app, model, profile, backend)
    stats = result.stats.to_dict()
    return {
        "wall_cycles": result.wall_cycles,
        "stats_sha256": hashlib.sha256(
            canonical_stats(result.stats).encode()
        ).hexdigest(),
        "faults": {name: stats[name] for name in FAULT_COUNTERS},
    }


def trace_digest(app: str, model: str, backend: str) -> str:
    tracer = RingTracer(capacity=None)
    _run(app, model, TRACED_PROFILE, backend, tracer=tracer)
    digest = hashlib.sha256()
    for event in tracer.events():
        record = json.dumps(event_to_record(event), sort_keys=True)
        digest.update(record.encode() + b"\n")
    return digest.hexdigest()


def _cell_keys():
    return [f"{app}/{model}/{profile}"
            for app in APPS for model in MODELS for profile in PROFILES]


def _trace_keys():
    return [f"{app}/{model}/{TRACED_PROFILE}"
            for app in TRACED_APPS for model in TRACED_MODELS]


GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_grid_and_exercises_faults():
    assert sorted(GOLDEN["cells"]) == sorted(_cell_keys())
    assert sorted(GOLDEN["traces"]) == sorted(_trace_keys())
    for profile in PROFILES:
        counters = [entry["faults"] for key, entry in GOLDEN["cells"].items()
                    if key.endswith("/" + profile)]
        assert sum(c["nacks"] for c in counters) > 0, profile
    loss = [entry["faults"] for key, entry in GOLDEN["cells"].items()
            if key.endswith("/loss")]
    assert sum(c["faa_replays"] for c in loss) > 0
    assert sum(c["replies_delayed"] for c in loss) > 0


@pytest.mark.parametrize("profile", list(PROFILES))
@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_faulted_cells_match_golden(backend, app, profile):
    drift = {}
    for model in MODELS:
        key = f"{app}/{model}/{profile}"
        entry = cell_entry(app, model, profile, backend)
        if entry != GOLDEN["cells"][key]:
            moved = {
                name: (entry["faults"][name], value)
                for name, value in GOLDEN["cells"][key]["faults"].items()
                if entry["faults"][name] != value
            }
            drift[model] = (entry["wall_cycles"],
                            GOLDEN["cells"][key]["wall_cycles"], moved)
    assert not drift, f"{app}/{profile} on {backend}: (now, golden) {drift}"


@pytest.mark.parametrize("key", _trace_keys())
@pytest.mark.parametrize("backend", BACKENDS)
def test_traced_faulted_stream_matches_golden(backend, key):
    app, model, _profile = key.split("/")
    assert trace_digest(app, model, backend) == GOLDEN["traces"][key], key


def _capture() -> dict:
    """Compute the fixture on both backends, refusing any disagreement."""
    cells, traces = {}, {}
    for key in _cell_keys():
        entries = [cell_entry(*key.split("/"), backend) for backend in BACKENDS]
        assert entries[0] == entries[1], key
        cells[key] = entries[0]
    for key in _trace_keys():
        app, model, _profile = key.split("/")
        digests = [trace_digest(app, model, backend) for backend in BACKENDS]
        assert digests[0] == digests[1], key
        traces[key] = digests[0]
    return {"cells": cells, "traces": traces}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
