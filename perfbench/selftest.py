"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks that the input
generator is deterministic per seed, that an untraced pass installs the
tick timer and nothing else, that the tracer reports a vanished target
as missing instead of failing, that every wrapper is removed again, and
that the host clock leaves its calibration slices out of program time.
Exits 0 when all checks hold.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from pathlib import Path

import run

os.environ.update(run.THREAD_ENV)
sys.path.insert(0, str(Path.cwd() / "src"))

import gen  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


class CheckFailed(Exception):
    pass


def _expect(condition: bool, message: object) -> None:
    if not condition:
        raise CheckFailed(str(message))


def _targets() -> dict[str, object]:
    """Current raw objects behind every tracer target."""
    out = {}
    for module, path, _ in tr.TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out[f"{module}.{path}"] = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
    return out


def check_generator_deterministic(tmp_dir: Path) -> None:
    for name, wl in workloads.WORKLOADS.items():
        files = []
        for k in range(2):
            work = tmp_dir / f"{name}-{k}"
            work.mkdir(parents=True, exist_ok=True)
            plan = [inv.argv for inv in wl.plan(5, work)]
            files.append((plan, sorted((p.name, p.read_bytes()) for p in work.glob("*.json"))))
        _expect(files[0] == files[1], f"{name}: inputs differ between two runs of seed 5")
    a = gen.ladder_feeder(150, 1)
    b = gen.ladder_feeder(150, 2)
    _expect(json.dumps(a) != json.dumps(b), "seeds 1 and 2 gave the same feeder")


def check_untraced_has_only_tick_timer() -> None:
    before = _targets()
    timer = tr.TickTimer()
    during = _targets()
    changed = sorted(k for k in before if during[k] is not before[k])
    _expect(timer.installed == ["voltvar_sim.sim.SimulationEngine.step_inner"],
            f"tick timer installed {timer.installed}")
    _expect(changed == timer.installed, f"untraced pass changed {changed}")
    timer.uninstall()
    _expect(all(_targets()[k] is v for k, v in before.items()), "tick timer not removed")


def check_tracer_install_and_removal() -> None:
    before = _targets()
    tracer = tr.Tracer()
    _expect(not tracer.missing, f"targets missing at this commit: {tracer.missing}")
    _expect(all(_targets()[k] is not v for k, v in before.items()), "tracer left a target unwrapped")
    tracer.patch("voltvar_sim.sim", "no_such_function", lambda fn: fn)
    tracer.patch("voltvar_sim.sim", "SimulationEngine.no_such_method", lambda fn: fn)
    _expect(tracer.missing == ["voltvar_sim.sim.no_such_function",
                              "voltvar_sim.sim.SimulationEngine.no_such_method"],
            f"vanished targets not reported as missing: {tracer.missing}")
    tracer.uninstall()
    _expect(all(_targets()[k] is v for k, v in before.items()), "tracer not removed")


def check_self_times() -> None:
    import numpy as np

    spans = {"start": np.array([0.0, 1.0, 2.0, 5.0]), "end": np.array([10.0, 4.0, 3.0, 6.0]),
             "parent": np.array([-1, 0, 1, 0])}
    got = tr.self_times(spans)
    _expect(np.allclose(got, [6.0, 2.0, 1.0, 1.0]), f"self times {got}")
    _expect(np.isclose(got.sum(), 10.0), "self times do not sum to the root span")


def check_host_clock() -> None:
    import signal
    import time

    import numpy as np

    host = hostspeed.HostClock()
    host.start()
    t0, p0 = host.now(), time.perf_counter()
    while time.perf_counter() - p0 < 0.6:
        sum(range(1000))
    t1, p1 = host.now(), time.perf_counter()
    host.stop()
    _expect(signal.getsignal(signal.SIGALRM) is signal.SIG_DFL, "SIGALRM handler not restored")
    _expect(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "alarm timer left running")
    _expect(len(host.dur) >= 5, f"only {len(host.dur)} slices in 0.6 s")
    inside = [d for a, d in zip(host.at, host.dur) if t0 <= a <= t1]
    _expect(abs((p1 - p0) - (t1 - t0) - sum(inside)) < 1e-3,
            "program clock does not leave out the slices")
    ref = host.reference(np.linspace(host.at[0], host.at[-1], 50))
    _expect(bool(np.all(np.diff(ref) > 0)), "reference clock not increasing")


def main() -> int:
    tmp_dir = Path.cwd() / ".perfbench_out" / "selftest"
    checks = [
        ("generator_deterministic", lambda: check_generator_deterministic(tmp_dir)),
        ("untraced_has_only_tick_timer", check_untraced_has_only_tick_timer),
        ("tracer_install_and_removal", check_tracer_install_and_removal),
        ("self_times", check_self_times),
        ("host_clock", check_host_clock),
    ]
    failed = 0
    for name, check in checks:
        try:
            check()
            print(f"ok    {name}")
        except CheckFailed as exc:
            failed += 1
            print(f"FAIL  {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
