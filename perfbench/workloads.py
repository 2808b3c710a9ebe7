"""The three benchmark workloads as plans of CLI invocations.

A plan is a list of invocations; each is a label, the argv given to
`voltvar_sim.cli.main`, the output directory it writes, the number of
ticks it steps, and its kind (run, sweep or analyze), which decides the
outputs checked.  Paths are relative to the work directory the inputs
were generated in.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

CONTROLLERS = ("none", "conventional", "delayed", "adaptive")
SWEEP_VALUES = "1,2,4"
INTERMITTENCY_HORIZON = 700  # horizon of the bundled `intermittency` preset

LADDER_BUSES = 300
LADDER_HORIZON = 40
LADDER_SWITCH_EVERY = 12
LADDER_LOAD_STEPS = ((18, 1.15), (30, 1 / 1.15))

LINEAR_BUSES = 150
LINEAR_HORIZON = 3000


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]
    out: str
    ticks: int  # step_inner calls it makes
    kind: str  # "run", "sweep" or "analyze"


@dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable[[int, Path], list[Invocation]]  # (seed, work dir) -> invocations
    # tick_ms_tail is this percentile.  ladder300 takes the highest that
    # leaves 10 ticks beyond it at min_passes passes.  The short-tick
    # workloads take p99 instead: beyond p99.8 sit only 15-40 ticks, and a
    # few ~10 ms host stalls per run moved those far tails by 30-60%.
    tail_pct: float
    min_passes: int


def _study30(seed: int, work: Path) -> list[Invocation]:
    ticks = INTERMITTENCY_HORIZON - 1
    plan = [
        Invocation(
            f"run-{c}",
            ("run", "--scenario", "presets/intermittency", "--set", f"controller={c}",
             "--seed", str(seed), "--out", f"out/run-{c}"),
            f"out/run-{c}", ticks, "run")
        for c in CONTROLLERS
    ]
    n_values = len(SWEEP_VALUES.split(","))
    plan.append(Invocation(
        "sweep-k_d",
        ("sweep", "--scenario", "presets/intermittency", "--param", "k_d",
         "--values", SWEEP_VALUES, "--seed", str(seed), "--out", "out/sweep"),
        "out/sweep", ticks * n_values, "sweep"))
    return plan


def _ladder300(seed: int, work: Path) -> list[Invocation]:
    feeder = gen.ladder_feeder(LADDER_BUSES, seed, open_laterals=3)
    scenario = gen.ladder_scenario(feeder, seed, LADDER_HORIZON, LADDER_SWITCH_EVERY,
                                   LADDER_LOAD_STEPS)
    gen.write_json(feeder, work / "feeder.json")
    gen.write_json(scenario, work / "scenario.json")
    return [Invocation(
        "run-adaptive",
        ("run", "--scenario", "scenario.json", "--feeder", "feeder.json",
         "--out", "out/run"),
        "out/run", LADDER_HORIZON - 1, "run")]


def _linear150(seed: int, work: Path) -> list[Invocation]:
    feeder = gen.ladder_feeder(LINEAR_BUSES, seed)
    scenario = gen.linear_scenario(feeder, seed, LINEAR_HORIZON)
    gen.write_json(feeder, work / "feeder.json")
    gen.write_json(scenario, work / "scenario.json")
    return [
        Invocation(
            "run-linear",
            ("run", "--engine", "linear", "--scenario", "scenario.json",
             "--feeder", "feeder.json", "--out", "out/run"),
            "out/run", LINEAR_HORIZON - 1, "run"),
        Invocation("analyze", ("analyze", "--feeder", "feeder.json"), "", 0, "analyze"),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study30", _study30, tail_pct=99.0, min_passes=3),
        Workload("ladder300", _ladder300, tail_pct=95.0, min_passes=6),
        Workload("linear150", _linear150, tail_pct=99.0, min_passes=3),
    )
}
