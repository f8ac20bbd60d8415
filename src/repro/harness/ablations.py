"""Ablation studies beyond the paper's tables.

These probe the design choices DESIGN.md calls out:

* *latency sweep* — how each model's efficiency scales as the round trip
  grows from 50 to 400 cycles (the paper argues grouping matters *more*
  at longer latencies);
* *model shoot-out* — all eight taxonomy models on one application at a
  fixed machine;
* *switch-cost sensitivity* — what pipeline-flush cost does to the
  switch-on-miss model (the paper's Section 3 zero-cost argument);
* *forced-interval study* — Section 6.2's critical-section fix: turn the
  200-cycle cap off and watch lock-heavy ugray livelock (the uncapped
  probe is bounded by ``PROBE_MARGIN`` x the slowest capped run);
* *fault sensitivity* — latency jitter, hot-spot contention and dropped
  replies (NACK/retry) vs the explicit- vs conditional-switch ranking;
* *degradation sweep* — seed-deterministic component lifecycles
  (HEALTHY→DEGRADED→FAILED→REPAIRING, DESIGN §5i): efficiency and
  availability vs the number of degrading memory components, per switch
  model — does multithreading's latency tolerance extend to *partial
  outages*?
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.tablefmt import TextTable
from repro.machine.models import SwitchModel
from repro.harness.context import ExperimentContext

#: The uncapped forced-interval probe is reported as a livelock once it
#: has run this many times as long as the slowest capped interval that
#: finished.
PROBE_MARGIN = 4

_SWEEP_MODELS = [
    SwitchModel.SWITCH_ON_LOAD,
    SwitchModel.EXPLICIT_SWITCH,
    SwitchModel.CONDITIONAL_SWITCH,
]


def latency_sweep(
    ctx: ExperimentContext,
    app_name: str = "sor",
    latencies: List[int] = (50, 100, 200, 400),
    level: int = 6,
) -> Tuple[str, Dict]:
    """Efficiency vs round-trip latency, per model, at fixed M."""
    table = TextTable(
        f"Ablation: {app_name} efficiency vs latency "
        f"(P={ctx.processors}, M={level})",
        ["model"] + [f"{lat} cy" for lat in latencies],
    )
    data: Dict[str, Dict[int, float]] = {}
    ctx.prefetch(
        ctx.spec(app_name, model, ctx.processors, level, latency=latency)
        for model in _SWEEP_MODELS
        for latency in latencies
    )
    for model in _SWEEP_MODELS:
        series = {}
        for latency in latencies:
            result = ctx.run(
                app_name, model, ctx.processors, level, latency=latency
            )
            series[latency] = ctx.efficiency(result, app_name)
        table.add_row(
            [model.value] + [f"{series[lat]:.2f}" for lat in latencies]
        )
        data[model.value] = series
    return table.render(), data


def model_shootout(
    ctx: ExperimentContext, app_name: str = "sor", level: int = 6
) -> Tuple[str, Dict]:
    """Every taxonomy model on one application."""
    table = TextTable(
        f"Ablation: all switch models on {app_name} "
        f"(P={ctx.processors}, M={level}, latency={ctx.latency})",
        ["model", "efficiency", "mean run", "switches"],
    )
    data: Dict[str, Dict] = {}
    ctx.prefetch(
        ctx.spec(app_name, model, ctx.processors, level)
        for model in SwitchModel
        if model is not SwitchModel.IDEAL
    )
    for model in SwitchModel:
        if model is SwitchModel.IDEAL:
            continue
        result = ctx.run(app_name, model, ctx.processors, level)
        efficiency = ctx.efficiency(result, app_name)
        table.add_row(
            [
                model.value,
                f"{efficiency:.2f}",
                f"{result.stats.mean_run_length:.1f}",
                result.stats.switches,
            ]
        )
        data[model.value] = {
            "efficiency": efficiency,
            "mean_run": result.stats.mean_run_length,
            "switches": result.stats.switches,
        }
    return table.render(), data


def switch_cost_sensitivity(
    ctx: ExperimentContext,
    app_name: str = "sor",
    costs: List[int] = (0, 2, 4, 8, 16),
    level: int = 6,
) -> Tuple[str, Dict]:
    """switch-on-miss efficiency vs pipeline-flush cost."""
    table = TextTable(
        f"Ablation: switch-on-miss flush cost, {app_name} "
        f"(P={ctx.processors}, M={level})",
        ["flush cost"] + ["efficiency"],
    )
    data: Dict[int, float] = {}
    ctx.prefetch(
        ctx.spec(
            app_name, SwitchModel.SWITCH_ON_MISS, ctx.processors, level,
            switch_cost=cost,
        )
        for cost in costs
    )
    for cost in costs:
        result = ctx.run(
            app_name,
            SwitchModel.SWITCH_ON_MISS,
            ctx.processors,
            level,
            switch_cost=cost,
        )
        efficiency = ctx.efficiency(result, app_name)
        table.add_row([f"{cost} cy", f"{efficiency:.2f}"])
        data[cost] = efficiency
    return table.render(), data


def forced_interval_study(
    ctx: ExperimentContext,
    app_name: str = "ugray",
    intervals: List[int] = (0, 100, 200, 400, 800),
    level: int = 4,
) -> Tuple[str, Dict]:
    """Section 6.2: the forced-switch cap vs lock contention under
    conditional-switch (interval 0 disables the mechanism)."""
    table = TextTable(
        f"Ablation: conditional-switch forced interval, {app_name} "
        f"(P={ctx.processors}, M={level})",
        ["interval", "efficiency", "forced switches"],
    )
    data: Dict[int, Dict] = {}
    # Without the cap a thread spinning on cache hits can starve the lock
    # holder forever (the very problem Section 6.2 fixes), so every run is
    # bounded and a livelock is reported as zero efficiency.  The capped
    # intervals get 40x the zero-latency serial time.  Removing the cap
    # only removes rotations, so the uncapped probe then gets
    # PROBE_MARGIN x the slowest capped run that finished: past that it is
    # starving, which is what its row reports.
    budget = 40 * ctx.t1(app_name)
    from repro.machine.simulator import SimulationTimeout

    def attempt(interval: int, max_cycles: int):
        try:
            return ctx.run(
                app_name,
                SwitchModel.CONDITIONAL_SWITCH,
                ctx.processors,
                level,
                forced_switch_interval=interval,
                max_cycles=max_cycles,
            )
        except SimulationTimeout:
            return None

    capped = [interval for interval in intervals if interval]
    # Prefetch with failures recorded, not raised: a capped interval that
    # times out surfaces as the memoised SimulationTimeout in attempt(),
    # exactly where the serial loop would hit it.
    ctx.prefetch(
        ctx.spec(
            app_name,
            SwitchModel.CONDITIONAL_SWITCH,
            ctx.processors,
            level,
            forced_switch_interval=interval,
            max_cycles=budget,
        )
        for interval in capped
    )
    results = {interval: attempt(interval, budget) for interval in capped}
    finished = [r.wall_cycles for r in results.values() if r is not None]
    # If no capped interval finished, the probe keeps the full budget.
    probe_budget = min(budget, PROBE_MARGIN * max(finished, default=budget))
    if 0 in intervals:
        results[0] = attempt(0, probe_budget)
    for interval in intervals:
        result = results[interval]
        if result is None:
            table.add_row([interval if interval else "off", "livelock", "-"])
            data[interval] = {"efficiency": 0.0, "forced": None}
            continue
        efficiency = ctx.efficiency(result, app_name)
        table.add_row(
            [
                interval if interval else "off",
                f"{efficiency:.2f}",
                result.stats.forced_switches,
            ]
        )
        data[interval] = {
            "efficiency": efficiency,
            "forced": result.stats.forced_switches,
        }
    if 0 in data:
        data[0]["max_cycles"] = probe_budget
    return table.render(), data


def jitter_study(
    ctx: ExperimentContext,
    app_name: str = "sor",
    jitters: List[int] = (0, 50, 100, 200),
    level: int = 8,
) -> Tuple[str, Dict]:
    """Latency-variance robustness (beyond the paper).

    The paper models a constant round trip but notes real networks have
    "a large variance in latency"; with variance, delivery is no longer
    ordered and round-robin scheduling is no longer provably optimal.
    This sweep adds deterministic return-path jitter U[0, J] and watches
    how far the constant-latency conclusions degrade.
    """
    table = TextTable(
        f"Ablation: return-path latency jitter, {app_name} "
        f"(P={ctx.processors}, M={level}, base latency {ctx.latency})",
        ["model"] + [f"+U[0,{j}]" for j in jitters],
    )
    data: Dict[str, Dict[int, float]] = {}
    ctx.prefetch(
        ctx.spec(app_name, model, ctx.processors, level, latency_jitter=jitter)
        for model in (SwitchModel.SWITCH_ON_LOAD, SwitchModel.EXPLICIT_SWITCH)
        for jitter in jitters
    )
    for model in (SwitchModel.SWITCH_ON_LOAD, SwitchModel.EXPLICIT_SWITCH):
        series = {}
        for jitter in jitters:
            result = ctx.run(
                app_name, model, ctx.processors, level, latency_jitter=jitter
            )
            series[jitter] = ctx.efficiency(result, app_name)
        table.add_row(
            [model.value] + [f"{series[j]:.2f}" for j in jitters]
        )
        data[model.value] = series
    return table.render(), data


def fault_sensitivity(
    ctx: ExperimentContext,
    app_name: str = "sor",
    level: int = 8,
) -> Tuple[str, Dict]:
    """Latency variance and reply loss vs the switch-model ranking.

    The paper's conclusions assume a constant, reliable round trip.
    This study perturbs both assumptions with the seeded fault models of
    :mod:`repro.faults` — uniform and geometric return-path jitter, a
    hot-spot contention queue per memory module, and 1% dropped replies
    (recovered via NACK + capped-backoff retry) — and watches whether
    explicit-switch keeps its edge over conditional-switch once its
    carefully grouped remote accesses no longer return in lockstep.
    """
    from repro.faults import FaultConfig

    jitter = max(1, ctx.latency // 2)
    scenarios = [
        ("constant", None),
        (
            f"uniform +U[0,{jitter}]",
            FaultConfig(latency_model="uniform", jitter=jitter),
        ),
        (
            f"geometric mean~{jitter}",
            FaultConfig(latency_model="geometric", jitter=jitter),
        ),
        ("hot-spot modules", FaultConfig(latency_model="hotspot")),
        ("1% reply loss", FaultConfig(loss_rate=0.01)),
    ]
    models = (SwitchModel.EXPLICIT_SWITCH, SwitchModel.CONDITIONAL_SWITCH)
    table = TextTable(
        f"Ablation: fault-model sensitivity, {app_name} "
        f"(P={ctx.processors}, M={level}, base latency {ctx.latency})",
        ["scenario"] + [f"{model.value} eff" for model in models] + ["retries"],
    )

    def extra(config):
        return {} if config is None else {"faults": config}

    ctx.prefetch(
        ctx.spec(app_name, model, ctx.processors, level, **extra(config))
        for _, config in scenarios
        for model in models
    )
    data: Dict[str, Dict] = {}
    for name, config in scenarios:
        row = [name]
        retries = 0
        entry = {}
        for model in models:
            result = ctx.run(
                app_name, model, ctx.processors, level, **extra(config)
            )
            efficiency = ctx.efficiency(result, app_name)
            row.append(f"{efficiency:.2f}")
            retries += result.stats.retries
            entry[model.value] = {
                "efficiency": efficiency,
                "retries": result.stats.retries,
            }
        row.append(retries)
        table.add_row(row)
        data[name] = entry
    return table.render(), data


def degradation_sweep(
    ctx: ExperimentContext,
    app_name: str = "sieve",
    affected_counts: List[int] = (0, 1, 2, 4),
    level: int = 4,
    components: int = 8,
) -> Tuple[str, Dict]:
    """Efficiency and availability vs the number of degrading components.

    Every scenario walks the same seeded lifecycle schedule
    (:mod:`repro.faults.lifecycle`); only ``affected`` — how many of the
    ``components`` interleaved memory components actually degrade and
    fail — varies.  ``affected=0`` is the inert control: lifecycles
    configured, zero transitions, byte-identical simulation (the
    fast-path contract :func:`repro.check.zero_lifecycle_equivalence`
    pins).  The means are short relative to these small runs so every
    scenario sees several full degrade/fail/repair cycles.
    """
    from repro.faults import FaultConfig, LifecycleConfig

    def faults_for(affected: int) -> FaultConfig:
        return FaultConfig(
            lifecycle=LifecycleConfig(
                components=components,
                seed=7,
                mean_healthy=4_000,
                mean_degraded=2_000,
                mean_failed=800,
                mean_repair=1_200,
                affected=affected,
            )
        )

    models = (SwitchModel.EXPLICIT_SWITCH, SwitchModel.CONDITIONAL_SWITCH)
    table = TextTable(
        f"Ablation: component degradation, {app_name} "
        f"(P={ctx.processors}, M={level}, {components} components)",
        ["degrading"]
        + [f"{model.value} eff" for model in models]
        + ["failures", "downtime cy", "nacks"],
    )
    ctx.prefetch(
        ctx.spec(app_name, model, ctx.processors, level,
                 faults=faults_for(affected))
        for affected in affected_counts
        for model in models
    )
    data: Dict[int, Dict] = {}
    for affected in affected_counts:
        row = [f"{affected}/{components}"]
        failures = downtime = nacks = 0
        entry: Dict = {}
        for model in models:
            result = ctx.run(
                app_name, model, ctx.processors, level,
                faults=faults_for(affected),
            )
            efficiency = ctx.efficiency(result, app_name)
            row.append(f"{efficiency:.2f}")
            stats = result.stats
            failures += stats.lifecycle_failures
            downtime += stats.lifecycle_downtime_cycles
            nacks += stats.nacks
            entry[model.value] = {
                "efficiency": efficiency,
                "failures": stats.lifecycle_failures,
                "downtime_cycles": stats.lifecycle_downtime_cycles,
                "degraded_cycles": stats.lifecycle_degraded_cycles,
                "nacks": stats.nacks,
                "mttf": stats.mttf(),
                "mttr": stats.mttr(),
            }
        row += [failures, downtime, nacks]
        table.add_row(row)
        data[affected] = entry
    return table.render(), data


ALL_ABLATIONS = {
    "latency": latency_sweep,
    "shootout": model_shootout,
    "switch-cost": switch_cost_sensitivity,
    "forced-interval": forced_interval_study,
    "jitter": jitter_study,
    "faults": fault_sensitivity,
    "degradation": degradation_sweep,
}
