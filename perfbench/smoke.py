"""Smoke test of the benchmark itself: a few-hundred-point version of each
workload, untraced and traced, must pass every check, emit exactly the
metrics BENCHMARK.json names, and give identical byte fingerprints with the
tracer on and off.  Finishes in well under a minute.

    python3 perfbench/smoke.py      # from the root of a checkout
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import run as bench

SMOKE_POINTS = {"intra-dense": 400, "inter-sparse": 300, "eval-dense": 400}
CYCLES = 3


def main() -> int:
    root = Path.cwd()
    bench.cap_blas_threads()
    bench.import_checkout(root)
    import harness

    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(harness.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from harness.WORKLOADS")
    for name, points in SMOKE_POINTS.items():
        workload = replace(harness.WORKLOADS[name], points=points)
        prints = {}
        for trace in (0, 1):
            run, metrics, units = bench.execute(workload, 7, 0, trace, root,
                                                min_cycles=CYCLES)
            res = bench.result(run, metrics, units)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            status = "ok" if res["correct"] else "FAILED"
            print(f"{name} trace {trace}: {status}, {res['attempted']} ops, "
                  f"{len(run.checks)} checks, {run.loop_s:.1f} s")
            if not res["correct"]:
                problems.append(f"{name} trace {trace}: checks failed")
            if got != declared[trace]:
                problems.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(declared[trace]))}")
            if trace == 0 and any(v["value"] <= 0 for v in res["metrics"].values()):
                problems.append(f"{name}: an end-to-end metric is not positive")
            prints[trace] = [harness.fingerprint(c) for c in run.cycles]
        if prints[0] != prints[1] or len(prints[0]) != CYCLES:
            problems.append(f"{name}: fingerprints differ between trace on and off")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
