"""Strict serve-side validation of fault/lifecycle spec payloads.

Every malformed form a client can send in the curl-friendly
``{"faults": {...}}`` mapping must come back as a *structured* 400
naming the offending key — never a 500 from deep inside a dataclass
constructor, and never a silently dropped chaos knob.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.engine import RunSpec
from repro.faults import FaultConfig, LifecycleConfig
from repro.serve import (
    ReproServer,
    ServerConfig,
    SpecValidationError,
    specs_from_payload,
    validate_fault_spec,
    validate_lifecycle_spec,
)
from repro.serve.validation import MAX_SERVED_THREADS


# -- validator unit level --------------------------------------------------------


@pytest.mark.parametrize(
    "payload, key",
    [
        # unknown keys (the historical 500: FaultConfig(**{...}) TypeError)
        ({"los_rate": 0.1}, "los_rate"),
        ({"lifecycle": {"compnents": 2}}, "compnents"),
        # wrong types
        ({"loss_rate": "high"}, "loss_rate"),
        ({"seed": 1.5}, "seed"),
        ({"jitter": True}, "jitter"),
        ({"latency_model": 3}, "latency_model"),
        ({"lifecycle": {"components": "two"}}, "components"),
        ({"lifecycle": 5}, "lifecycle"),
        ("not-a-mapping", "faults"),
        # out-of-range values (constructor rules, key re-attached)
        ({"loss_rate": 2.0}, "loss_rate"),
        ({"delay_rate": -0.5}, "delay_rate"),
        ({"latency_model": "quantum"}, "latency_model"),
        ({"max_retries": 0}, "max_retries"),
        ({"lifecycle": {"components": 0}}, "components"),
        ({"lifecycle": {"degrade_stages": 0}}, "degrade_stages"),
        ({"lifecycle": {"degraded_scale": 0.25}}, "degraded_scale"),
        ({"lifecycle": {"components": 2, "affected": 5}}, "affected"),
    ],
)
def test_validator_rejects_with_offending_key(payload, key):
    with pytest.raises(SpecValidationError) as info:
        validate_fault_spec(payload)
    assert info.value.key == key


def test_validator_accepts_well_formed_payloads():
    config = validate_fault_spec(
        {
            "latency_model": "uniform",
            "jitter": 50,
            "loss_rate": 0.01,
            "seed": 3,
            "lifecycle": {"components": 2, "seed": 7, "affected": 1},
        }
    )
    assert config == FaultConfig(
        latency_model="uniform",
        jitter=50,
        loss_rate=0.01,
        seed=3,
        lifecycle=LifecycleConfig(components=2, seed=7, affected=1),
    )
    # Floats may arrive as JSON integers.
    assert validate_fault_spec({"loss_rate": 0}).loss_rate == 0.0
    lifecycle = validate_lifecycle_spec({"components": 3, "degraded_scale": 2})
    assert lifecycle.degraded_scale == 2.0


def test_specs_from_payload_preserves_validation_structure():
    payload = {
        "spec": {
            "app": "sieve",
            "model": "eswitch",
            "level": 2,
            "faults": {"lifecycle": {"mean_healthy": -1}},
        }
    }
    with pytest.raises(SpecValidationError) as info:
        specs_from_payload(payload)
    assert info.value.key == "mean_healthy"


def test_lenient_from_dict_contract_is_untouched():
    """The strictness lives in the serve layer only: FaultConfig.from_dict
    keeps ignoring unknown keys (old cached payloads must load)."""
    data = FaultConfig(loss_rate=0.01).to_dict()
    data["future_field"] = 1
    assert FaultConfig.from_dict(data) == FaultConfig(loss_rate=0.01)
    with pytest.raises(SpecValidationError):
        validate_fault_spec(data)


# -- HTTP level ------------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(port=0, quiet=True, no_cache=True)
    with ReproServer(config) as running:
        yield running


def _post_job(server, faults):
    return _post_spec(server, {"app": "sieve", "model": "eswitch", "level": 2,
                               "scale": "tiny", "faults": faults})


def _post_spec(server, spec):
    request = urllib.request.Request(
        server.url + "/v1/jobs",
        data=json.dumps({"spec": spec}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.mark.parametrize(
    "faults, key",
    [
        ({"los_rate": 0.1}, "los_rate"),
        ({"loss_rate": "high"}, "loss_rate"),
        ({"loss_rate": 7.5}, "loss_rate"),
        ({"latency_model": "quantum"}, "latency_model"),
        ({"lifecycle": {"compnents": 2}}, "compnents"),
        ({"lifecycle": {"degrade_stages": 0}}, "degrade_stages"),
        ({"lifecycle": "everything"}, "lifecycle"),
        (["not", "a", "mapping"], "faults"),
    ],
)
def test_submit_returns_structured_400(server, faults, key):
    status, body = _post_job(server, faults)
    assert status == 400
    assert body["key"] == key
    assert body["error"]


def test_submit_accepts_valid_lifecycle_spec(server):
    status, body = _post_job(
        server, {"lifecycle": {"components": 2, "seed": 7}}
    )
    assert status == 202
    assert "job" in body


# -- the door: specs no run could serve ------------------------------------------

_TINY = {"app": "sieve", "model": "switch-on-load", "processors": 2,
         "level": 2, "scale": "tiny"}


def _exact(spec):
    """The :meth:`RunSpec.to_dict` form of a curl-form spec."""
    return RunSpec.create(**spec).to_dict()


@pytest.mark.parametrize("form", [dict, _exact], ids=["curl", "exact"])
@pytest.mark.parametrize(
    "fields, key, words",
    [
        ({"processors": 10_000_000, "level": 10_000}, None, "threads"),
        ({"app": "nope"}, "app", "nope"),
        ({"app": 5}, "app", "string"),
        ({"scale": "enormous"}, "scale", "enormous"),
        ({"burst_limit": 0}, "burst_limit", "burst_limit"),
        ({"timeout": None}, "timeout", "timeout"),
    ],
    ids=["threads", "app", "app-type", "scale", "burst-limit",
         "unknown-override"],
)
def test_unservable_spec_is_refused_at_the_door(server, form, fields, key,
                                                words):
    status, body = _post_spec(server, form({**_TINY, **fields}))
    assert status == 400
    assert body.get("key") == key
    assert words in body["error"]


def test_malformed_model_is_a_400_not_a_dropped_connection(server):
    status, body = _post_spec(server, {**_TINY, "model": 5})
    assert status == 400
    assert "bad spec" in body["error"]


@pytest.mark.parametrize(
    "faults, key",
    [({"los_rate": 0.1}, "los_rate"), ({"loss_rate": 7.5}, "loss_rate"),
     ({"lifecycle": {"degrade_stages": 0}}, "degrade_stages")],
)
def test_exact_form_faults_are_checked_strictly(server, faults, key):
    """The :meth:`RunSpec.to_dict` form, what ``Client`` sends, gets the
    same strict fault check as the curl form."""
    spec = RunSpec.create(**_TINY, faults=FaultConfig(loss_rate=0.01)).to_dict()
    for pair in spec["overrides"]:
        if pair[0] == "faults":
            pair[1].update(faults)
    status, body = _post_spec(server, spec)
    assert status == 400
    assert body["key"] == key


def test_thread_bound_admits_the_reproduction_and_no_more():
    # Figure 3's largest machine, sieve P16 M12, is served.
    specs_from_payload({"spec": {**_TINY, "processors": 16, "level": 12}})
    with pytest.raises(SpecValidationError, match="threads"):
        specs_from_payload(
            {"spec": {**_TINY, "processors": 1,
                      "level": MAX_SERVED_THREADS + 1}}
        )


def test_ledger_spec_shapes_are_admitted():
    """What the serve ledger sends: synth kernels at P2 M2 and every
    app x model at P2, levels 1-8, all tiny, in both payload forms."""
    from repro.api import list_apps, list_models
    from repro.synth.config import PRESETS

    specs = [
        RunSpec.create(f"synth:{seed}:{preset}", model=model, processors=2,
                       level=2, scale="tiny")
        for seed, preset in enumerate(sorted(PRESETS))
        for model in list_models()
    ] + [
        RunSpec.create(app, model=model, processors=2, level=level,
                       scale="tiny")
        for app in list_apps() for model in list_models()
        for level in range(1, 9)
    ]
    keys = [spec.key() for spec in specs]
    exact = specs_from_payload({"specs": [spec.to_dict() for spec in specs]})
    assert [spec.key() for spec in exact] == keys
    curl = specs_from_payload({"specs": [
        {"app": spec.app, "model": spec.model, "processors": spec.processors,
         "level": spec.level, "scale": spec.scale}
        for spec in specs
    ]})
    assert [spec.key() for spec in curl] == keys
