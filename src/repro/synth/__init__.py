"""Synthetic workload generation and differential fuzzing.

Two layers (DESIGN §5j):

* :mod:`repro.synth.generator` — a seeded, splitmix64-deterministic
  generator of random-but-valid SPMD kernels, parameterised by
  :class:`~repro.synth.config.SynthConfig` (shared-load density, group
  sizes, branchiness, loop nesting, Fetch-and-Add usage, lock/barrier
  patterns).  Generated kernels pass :mod:`repro.lint` by construction
  and carry a reference-evaluated functional check.  They are
  addressable like built-in apps via ``synth:<seed>[:<preset>]``.
* :mod:`repro.synth.fuzz` — a differential harness running each kernel
  under all 8 switch models × both execution backends, cross-checking
  the :mod:`repro.check` conservation oracles, the cross-model
  invariants of :mod:`repro.check.crossmodel` and the static
  predictor's bounds (:mod:`repro.lint.predict`), with a shrinking pass
  that reduces failures to minimal JSON repro bundles.

CLI: ``repro-fuzz`` (see :mod:`repro.synth.cli`).
"""

from repro.synth.config import PRESETS, SynthConfig, get_preset
from repro.synth.fuzz import (
    FuzzOptions,
    SeedOutcome,
    fault_profile,
    fuzz_many,
    fuzz_seed,
    replay_bundle,
    replay_corpus_serve,
    run_selftest,
    shrink_plan,
    write_bundle,
)
from repro.synth.generator import (
    build_synth_app,
    generate_app,
    generate_plan,
    plan_segment_ids,
    program_fingerprint,
    prune_plan,
)
from repro.synth.registry import (
    SynthApp,
    format_synth_name,
    parse_synth_name,
    resolve_synth,
)

__all__ = [
    "SynthConfig",
    "PRESETS",
    "get_preset",
    "generate_plan",
    "generate_app",
    "build_synth_app",
    "prune_plan",
    "plan_segment_ids",
    "program_fingerprint",
    "SynthApp",
    "parse_synth_name",
    "format_synth_name",
    "resolve_synth",
    "FuzzOptions",
    "SeedOutcome",
    "fault_profile",
    "fuzz_seed",
    "fuzz_many",
    "shrink_plan",
    "replay_bundle",
    "replay_corpus_serve",
    "write_bundle",
    "run_selftest",
]
