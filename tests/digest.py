"""SHA-256 digests of engine outputs, to show that a change keeps them bit
for bit.  Not a test module: pytest does not collect it.

Run it from the repository root:

    PYTHONPATH=src python tests/digest.py > digest.out
    grep -v '^#' digest.out | diff tests/digest.txt -

Cases:
- every preset on the full engine, and `fig3a`, `fig10a` and
  `setpoint_step` on the linear twin: the trace arrays (voltages, var
  dispatch, real output, set-points, flags), the parameter log in its
  `params.csv` column form (the five logged fields with the two cut-offs
  derived between the var limits and the set-point) and the metrics,
  then the bytes of the `trace.csv`, `params.csv` and `metrics.json`
  that `run` writes;
- the benchmark plans (`perfbench/workloads.py`) at seeds 0 and 1: the
  `intermittency` run under each controller and its `k_d` sweep, and the
  generated `ladder300` and `linear150` runs, by the bytes of every file
  they write (`sweep.csv` included);
- the `ladder300` plan at 3,000 buses, seed 0, whose switches close and
  reopen laterals at the paper's scale, by the same files;
- the stdout of `presets --show NAME` for every preset, and of `analyze`
  on both bundled feeders.

The bits depend on the OpenBLAS kernel (the Z-bus fixed point's complex
mat-vec and, on Z islands only, the Newton fallback and the sensitivity
solve go through it; the sweep that solves `ladder300` and the tree
elimination do not), on its thread count and on numpy's SIMD loops.  So the cases run in a child process with all three
pinned (`PINNING`): the Haswell kernel, which any x86-64-v3 host can
run, one BLAS thread, and numpy's AVX-512 loops switched off.  That body
is checked in as `tests/digest.txt` (numpy 2.4.6, x86-64).  When the
calling shell already exports `PINNING`, the cases run in this process.
A header of `#` lines (numpy's runtime report, the pinning, the OpenBLAS
core) heads the output; only the lines after it need to match.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402  (perfbench/gen.py)
import workloads  # noqa: E402  (perfbench/workloads.py)
from voltvar_sim.cli import main  # noqa: E402
from voltvar_sim.control import slope_to_cutoffs  # noqa: E402
from voltvar_sim.presets import PRESETS, get_preset  # noqa: E402
from voltvar_sim.results import metrics  # noqa: E402
from voltvar_sim.sim import linearize, run  # noqa: E402

TWIN_PRESETS = ("fig3a", "fig10a", "setpoint_step")
SEEDS = (0, 1)
# numpy 2.4 names its dispatch targets X86_V4, AVX512_ICL, AVX512_SPR
# (an older name such as AVX512F is accepted and disables nothing); a
# threaded BLAS splits the larger products by the host's core count
PINNING = {
    "OPENBLAS_CORETYPE": "Haswell",
    "OPENBLAS_NUM_THREADS": "1",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def params_columns(values: np.ndarray) -> np.ndarray:
    """The logged parameter fields (m_p, q_p, q_min_p, q_max_p, mu) with
    the cut-offs v_min_p, v_max_p derived before mu: the `params.csv`
    columns."""
    return np.column_stack([values[:, :4], *slope_to_cutoffs(*values.T), values[:, 4]])


def trace_digests(trace) -> dict[str, str]:
    rep = metrics(trace, 0.03)
    ticks, units, values = trace.param_log
    parts = {
        "voltages": trace.voltages, "q_inj": trace.q_inj, "p_out": trace.p_out,
        "mu": trace.mu, "ticks": ticks, "units": units, "values": params_columns(values),
    }
    out = {k: sha(np.ascontiguousarray(v).tobytes()) for k, v in parts.items()}
    out["flags"] = sha(repr(trace.flags).encode())
    out["metrics"] = sha(repr(vars(rep)).encode())
    return out


def cli_files(argv: list[str], work: Path) -> dict[str, str]:
    """Run `voltvar-sim argv` in `work`: its exit code, and digests of its
    stdout and of every file it writes."""
    before = set(work.rglob("*"))
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(argv)
    out = {"exit": str(code), "stdout": sha(stdout.getvalue().encode())}
    for path in sorted(set(work.rglob("*")) - before):
        if path.is_file():
            out[str(path.relative_to(work))] = sha(path.read_bytes())
    return out


def ladder_argv(n: int, seed: int, plan_dir: str) -> list[str]:
    """Write the `ladder300` plan's feeder and scenario at `n` buses into
    `plan_dir` (relative to the working directory): the `run` arguments
    that solve it."""
    Path(plan_dir).mkdir()
    ladder = gen.ladder_feeder(n, seed, open_laterals=3)
    gen.write_json(ladder, Path(plan_dir, "feeder.json"))
    gen.write_json(gen.ladder_scenario(ladder, seed, workloads.LADDER_HORIZON,
                                       workloads.LADDER_SWITCH_EVERY,
                                       workloads.LADDER_LOAD_STEPS),
                   Path(plan_dir, "scenario.json"))
    return ["run", "--scenario", f"{plan_dir}/scenario.json",
            "--feeder", f"{plan_dir}/feeder.json", "--out", f"{plan_dir}/out"]


def cases(work: Path):
    for name in sorted(PRESETS):
        feeder, scenario = get_preset(name)
        yield f"full/{name}", trace_digests(run(scenario, feeder))
        yield f"full/{name}/cli", cli_files(
            ["run", "--scenario", f"presets/{name}", "--out", f"full-{name}"], work)
    for name in TWIN_PRESETS:
        feeder, scenario = get_preset(name)
        yield f"twin/{name}", trace_digests(run(scenario, linearize(feeder)))
        yield f"twin/{name}/cli", cli_files(
            ["run", "--engine", "linear", "--scenario", f"presets/{name}",
             "--out", f"twin-{name}"], work)
    for wname in ("study30", "ladder300", "linear150"):
        for seed in SEEDS:
            plan_dir = work / f"{wname}-{seed}"
            plan_dir.mkdir()
            os.chdir(plan_dir)
            for inv in workloads.WORKLOADS[wname].plan(seed, plan_dir):
                yield f"{wname}/{seed}/{inv.label}", cli_files(list(inv.argv), plan_dir)
            os.chdir(work)
    yield "ladder3000/0/run-adaptive", cli_files(ladder_argv(3000, 0, "ladder3000-0"), work)
    for name in sorted(PRESETS):
        yield f"presets/{name}", cli_files(["presets", "--show", name], work)
    for feeder in ("ieee4_mod", "feeder30"):
        yield f"analyze/{feeder}", cli_files(["analyze", "--feeder", feeder], work)


def openblas_core() -> str:
    """The OpenBLAS kernel this process runs: the library is found among the
    files mapped into the process and asked through ctypes."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unknown"


def main_digest() -> None:
    with contextlib.redirect_stdout(io.StringIO()) as runtime:
        np.show_runtime()
    for line in runtime.getvalue().splitlines():
        print(f"# {line}")
    for key in PINNING:
        print(f"# {key}={os.environ.get(key, '')}")
    print(f"# openblas_core={openblas_core()}")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        os.chdir(work)
        try:
            for case, digests in cases(work):
                for key, value in digests.items():
                    print(f"{case} {key} {value}")
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    if all(os.environ.get(k) == v for k, v in PINNING.items()):
        main_digest()
    else:  # the pinning must be set before numpy and OpenBLAS load
        env = {**os.environ, **PINNING}
        sys.exit(subprocess.run([sys.executable, __file__], env=env).returncode)
