"""voxcodec benchmark: one seeded workload per process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload intra-dense --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
processes every input twice, untraced and traced, and reports the per-layer
metrics and the layer-share table.  Human-readable lines go first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and a full record of the run are written
under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

WORKLOAD_NAMES = ("intra-dense", "inter-sparse", "eval-dense")

# name -> unit; BENCHMARK.json lists the same names.
END_TO_END = {
    "cycle_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def cap_blas_threads():
    """Run BLAS on one thread, like the one client it serves.  On 2 cores a
    second BLAS thread gained nothing and made cycle times noisier.  The
    variables are read when numpy loads, so call this before importing it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_checkout(root: Path):
    """Import voxcodec from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "voxcodec" / "__init__.py").is_file():
        raise SystemExit(f"error: no voxcodec sources under {src}; "
                         "run from the root of a voxcodec checkout")
    sys.path.insert(0, str(src))
    import voxcodec

    if Path(voxcodec.__file__).resolve().parent != (src / "voxcodec").resolve():
        raise SystemExit(f"error: voxcodec imported from {voxcodec.__file__}, not {src}")
    return voxcodec


# A fixed scale: about the median reference_kernel() CPU time on the 2-core
# machine the bounds were set on (0.039-0.074 s seen), so normalized times
# read as CPU seconds there.
REFERENCE_CPU_S = 0.065


def normalized(cpu_times, reference_times):
    """Median of each CPU time over the reference kernel's CPU time measured
    just before it, scaled by REFERENCE_CPU_S."""
    import harness

    return REFERENCE_CPU_S * harness.median(
        [c / r for c, r in zip(cpu_times, reference_times)])


def end_to_end(run):
    """CPU times normalized by a fixed reference kernel run in the same
    process just before each measured piece of work.

    The client runs on one thread (BLAS too), so its CPU time is its busy
    time without the time the host steals from the virtual CPU; the
    reference kernel cancels the slowdown from other load on the same
    physical core, which CPU time still shows.  On this shared host the
    interquartile spread of wall-clock medians over ten seeds reached 0.38."""
    import harness

    if run.cycles:
        cycle = normalized([c["cpu_s"] for c in run.cycles],
                           [c["reference_cpu_s"] for c in run.cycles])
    else:   # no cycle completed
        cycle = normalized([run.loop_s], [harness.median(run.reference_cpu)])
    return {
        "cycle_norm_s": cycle,
        "setup_s": normalized(run.setup_cpu_times, run.setup_reference_cpu),
        "peak_rss_mb": run.peak_rss_mb,
    }


def report_lines(run, metrics):
    """Human-readable summary: provenance, per-operation medians, checks."""
    import harness

    prov = run.provenance
    lines = [
        f"workload {run.w.name} seed {run.seed}: {run.w.why}",
        f"  machine: nproc {prov['nproc']}, python {prov['python']}, numpy {prov['numpy']}, "
        f"blas {prov['blas']['name']} {prov['blas']['version']} "
        f"threads {prov['blas']['threads']}, loadavg {prov['loadavg_start'][0]:.2f}",
        f"  closed loop, 1 client; {len(run.cycles)} cycles in {run.loop_s:.1f} s",
    ]
    for kind, (wall, cpu, count) in harness.op_medians(run).items():
        shown = ("n/a" if wall is None else
                 f"{wall:.4f} s wall, {cpu:.4f} s cpu (medians of {count})")
        lines.append(f"  {kind + '_s':12s} {shown}")
    if run.cycles:
        lines.append(f"  {'cycle_s':12s} {harness.median([c['s'] for c in run.cycles]):.4f} s "
                     f"wall, {harness.median([c['cpu_s'] for c in run.cycles]):.4f} s cpu "
                     f"(medians of {len(run.cycles)}); reference kernel "
                     f"{1000 * harness.median(run.reference_cpu):.1f} ms cpu")
    if run.cycles:
        pts = sum(c["points"] for c in run.cycles) / sum(c["s"] for c in run.cycles)
        lines.append(f"  {'pts_per_s':12s} {pts:.6g} pts/s (points through the cycles "
                     "per wall second)")
    coded = [c for c in run.cycles if "bytes" in c]
    if coded:
        bpp = sum(8 * c["bytes"] for c in coded) / sum(c["points"] for c in coded)
        lines.append(f"  {'bpp':12s} {bpp:.6f} bit/pt")
    frac = run.failed / run.attempted if run.attempted else 1.0
    lines.append(f"  {'failed_ops_frac':12s} {frac:.4f} ({run.failed} of {run.attempted})")
    for name, value in metrics.items():
        unit = END_TO_END.get(name)
        if unit is not None:
            lines.append(f"  {name:12s} {value:.6g} {unit}")
    passed = sum(ok for _, ok in run.checks)
    lines.append(f"  checks: {passed} of {len(run.checks)} passed")
    if run.cycles and "frames" in run.cycles[0]:
        first = run.cycles[0]["frames"][0]
        lines.append(f"  frame 0 sha256: ddpc {first['ddpc_sha256'][:16]}  "
                     f"decoded {first['decoded_sha256'][:16]}")
    return lines


def execute(workload, seed, seconds, trace, root, min_cycles=1):
    """Run one workload in this process; returns (run, metrics, units).

    Spans and a record of the run are written under ``root/.perfbench_work``."""
    import harness
    import layers
    import spans

    out_dir = root / ".perfbench_work"
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    run = harness.Run(workload, seed, out_dir / f"{tag}-inputs",
                      tracer=spans.Tracer("voxcodec") if trace else None)
    try:
        run.make_inputs()
        run.setup()
        run.loop(seconds, min_cycles)
        if workload.kind == "eval":
            run.verify_eval()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    if trace:
        metrics, units = layers.layer_metrics(run.tracer, run.cycles), layers.PER_LAYER
        run.tracer.write(out_dir / f"{tag}-spans.jsonl")
    else:
        metrics, units = end_to_end(run), END_TO_END
    record = {
        "provenance": run.provenance,
        "ops": run.ops,
        "cycles": run.cycles,
        "checks": [{"check": what, "passed": ok} for what, ok in run.checks],
        "setup_times": run.setup_times,
        "setup_cpu_times": run.setup_cpu_times,
        "reference_cpu": run.reference_cpu,
        "setup_reference_cpu": run.setup_reference_cpu,
        "metrics": metrics,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return run, metrics, units


def result(run, metrics, units):
    """The benchmark's result object (the last line of standard output)."""
    return {
        "correct": run.failed == 0 and run.attempted > 0 and all(ok for _, ok in run.checks),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    cap_blas_threads()
    import_checkout(root)
    import harness
    import layers

    run, metrics, units = execute(harness.WORKLOADS[args.workload], args.seed,
                                  args.seconds, args.trace, root)
    for line in report_lines(run, metrics):
        print(line)
    if args.trace:
        print(layers.format_shares(run.tracer.spans))
        for name, value in metrics.items():
            print(f"  {name:36s} {value:.6g} {units[name]}")
    print(json.dumps(result(run, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
