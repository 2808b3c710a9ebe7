"""Scan the benchmark's recorded outputs: run each workload plan for seeds
0-99 and print every output outside `perfbench/reference.json`'s
tolerance.  Not a test module: pytest does not collect it, and it is not
a CI gate.

Run it from the repository root:

    python3 tests/refscan.py

For each workload and seed it generates the plan's inputs
(`perfbench/workloads.py`) in a temporary directory and runs one untimed
benchmark pass on them (`run._run_pass`, as `perfbench/record.py` does),
so the outputs are read exactly as a pass reads them.  It compares them
with the recorded ones under the benchmark's tolerance (`run._compare`).
Each miss is printed as `workload/seed/label.key: value != reference
value`; the last line counts them.  The exit status is 1 when any output
misses, else 0.  A whole scan of the three workloads takes a few minutes.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]  # gen.py checks plans with voltvar_sim

import run  # noqa: E402  (perfbench/run.py; imports no numpy)

os.environ.update(run.THREAD_ENV)  # before numpy loads

import workloads  # noqa: E402

SEEDS = range(100)


def scan(name: str, seed: int, reference: dict) -> list[str]:
    """Misses of one workload plan at one seed against its reference."""
    want = reference["seeds"].get(name, {}).get(str(seed))
    if want is None:
        return [f"{name}/{seed}: no reference recorded"]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        plan = workloads.WORKLOADS[name].plan(seed, work)
        (work / "plan.json").write_text(json.dumps([asdict(i) for i in plan]), "utf-8")
        res = run._run_pass(ROOT, work, "tick", 0, time.monotonic() + run.PASS_TIMEOUT_S)
    return [miss for inv, rec in zip(plan, res["invocations"])
            for miss in run._compare(want.get(inv.label), rec["outputs"],
                                     f"{name}/{seed}/{inv.label}")]


def main() -> int:
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text("utf-8"))
    total = 0
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for miss in scan(name, seed, reference):
                print(miss, flush=True)
                total += 1
    print(f"{total} output(s) outside tolerance")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
