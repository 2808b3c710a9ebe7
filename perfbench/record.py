"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py --seeds 0-99 [--out perfbench/reference.json]

Run from the root of a source checkout, on the commit whose outputs are
the reference.  For each (workload, seed) it runs one untimed pass and
stores, per CLI invocation, the exit code and the checked values
(`metrics.json` fields of each run, per-value sweep means, `rho_ma` and
`rho_b` of analyze).  Entries already in the output file are kept unless
recorded again.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path

import run


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    os.environ.update(run.THREAD_ENV)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 0-99")
    parser.add_argument("--out", default=str(run.HERE / "reference.json"))
    args = parser.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    out = Path(args.out)
    doc = json.loads(out.read_text("utf-8")) if out.exists() else {}
    env = run._environment(root)
    doc.update({
        "recorded_on": {k: env[k] for k in ("git_commit", "src_sha256")},
        "tolerance": {"rel": run.REL_TOL, "abs": run.ABS_TOL,
                      "integers": "exact", "exit_codes": "exact"},
    })
    seeds = doc.setdefault("seeds", {})
    for name, wl in workloads.WORKLOADS.items():
        for seed in _seeds(args.seeds):
            work = root / ".perfbench_out" / f"record-{name}-s{seed}-{os.getpid()}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                plan = wl.plan(seed, work)
                (work / "plan.json").write_text(json.dumps([asdict(i) for i in plan]), "utf-8")
                res = run._run_pass(root, work, "tick", 0, time.monotonic() + run.PASS_TIMEOUT_S)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            outputs = {}
            for inv, rec in zip(plan, res["invocations"]):
                bad = run._sanity(inv.kind, rec["outputs"])
                if bad or rec["outputs"].get("diverged_ticks", 0):
                    print(f"{name} seed {seed} {inv.label}: {bad or rec['outputs']}",
                          file=sys.stderr)
                    return 1
                outputs[inv.label] = rec["outputs"]
            seeds.setdefault(name, {})[str(seed)] = outputs
            print(f"{name} seed {seed}: {json.dumps(outputs)[:120]}", flush=True)
    doc["seeds"] = {w: dict(sorted(s.items(), key=lambda kv: int(kv[0])))
                    for w, s in sorted(seeds.items())}
    out.write_text(json.dumps(doc, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
