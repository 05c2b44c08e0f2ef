"""Run every workload untraced and traced, one process at a time, and print
the end-to-end metrics, the per-operation medians, the layer-share tables and
the trace-on versus trace-off fingerprint comparison.

    python3 perfbench/report.py --seed 1 --seconds 30      # from a checkout root
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import layers
import run as bench
import spans


def run_one(root, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    record = json.loads((root / ".perfbench_work" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return lines[:-1], json.loads(lines[-1]), record


def fingerprint_diff(untraced, traced):
    """Cycles run in both records must have identical fingerprints."""
    import harness

    a, b = untraced["cycles"], traced["cycles"]
    same = min(len(a), len(b))
    bad = [c["cycle"] for c, d in zip(a[:same], b[:same])
           if harness.fingerprint(c) != harness.fingerprint(d)]
    return same, bad


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--workloads", default=",".join(bench.WORKLOAD_NAMES))
    args = p.parse_args()
    root = Path.cwd()
    bench.import_checkout(root)
    ok = True
    for workload in args.workloads.split(","):
        text0, res0, rec0 = run_one(root, workload, args.seed, args.seconds, 0)
        _, res1, rec1 = run_one(root, workload, args.seed, args.seconds, 1)
        print("\n".join(text0))
        sp, _ = spans.read_spans(root / ".perfbench_work" /
                                 f"{workload}-seed{args.seed}-trace1-spans.jsonl")
        print(layers.format_shares(sp))
        print(f"  trace.overhead_frac {res1['metrics']['trace.overhead_frac']['value']:.4f}, "
              f"trace.unattributed_frac "
              f"{res1['metrics']['trace.unattributed_frac']['value']:.6f}")
        same, bad = fingerprint_diff(rec0, rec1)
        print(f"  fingerprints, trace off vs on: {same - len(bad)} of {same} cycles identical")
        ok &= res0["correct"] and res1["correct"] and not bad and same > 0
        print()
    print("report: " + ("all checks passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
