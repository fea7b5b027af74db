"""Run one benchmark workload from a seed and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 40 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs every
operation twice, untraced and inside layer spans, and reports per-layer
metrics plus the tracing overhead.  Metrics are printed one per line,
with units and sample counts, followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``correct`` is true when every operation completed and printed its
reference output; ``failed`` counts operations that failed for any
cause, including a simulated makespan that differs from the tree-walking
tier's and a leaked shared-memory arena.  End-to-end timings are scaled
to a host of reference speed by a calibration loop timed between
operations (:func:`perfbench.measure.calibrate`); the printed notes keep
the raw figures.  Every process the run starts has ended and been waited
for before it exits.  Full reports and spans are
written under ``.bench_out/``; scratch files live under ``.bench_tmp/``
and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, SRC, use_checkout_src  # noqa: E402
from perfbench.measure import (  # noqa: E402
    OUTPUT_CAUSES,
    calibrate,
    end_to_end,
    import_groups,
    measure,
)
from perfbench.procs import become_subreaper, stop_all  # noqa: E402
from perfbench.report import layer_metrics, render  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: set-ups per run; ``setup_s`` is their median
SETUP_SAMPLES = 7
OUT_DIR = ROOT / ".bench_out"
TMP_ROOT = ROOT / ".bench_tmp"
#: the end-to-end metrics the final JSON line carries (never zero);
#: ``failed_ops_ratio`` is printed above it and is ``failed/attempted``
E2E_METRICS = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s",
               "ok_ops_ratio", "peak_rss_mb", "sim_makespan_gmean")


def timed_setup(workload) -> float:
    started = perf_counter()
    workload.setup()
    return perf_counter() - started


def probe_setup(args, importtime: bool = False) -> tuple[float, str]:
    """Set the workload up in a fresh interpreter; (seconds, stderr)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + [str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=ROOT)
    if proc.returncode:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"], proc.stderr


def run(args, tmpdir: str) -> tuple[dict, list[str]]:
    workload = WORKLOADS[args.workload](args.seed, tmpdir)
    samples = [timed_setup(workload)]
    calibrations = [calibrate()]
    import_profile = None
    if args.trace and workload.fresh_process_setup:
        import_profile = import_groups(probe_setup(args, True)[1])
    elif not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(probe_setup(args)[0]
                           if workload.fresh_process_setup
                           else timed_setup(workload))
            calibrations.append(calibrate())
    workload.references()

    tracer = None
    if args.trace:
        from perfbench.spans import Tracer, install
        tracer = Tracer()
        install(tracer)
    records = measure(workload, args.seconds, tracer)

    untraced = [r for r in records if not r.traced]
    e2e = end_to_end(untraced, samples, calibrations)
    attempted = len(records)
    failed = sum(1 for r in records if r.causes)
    correct = not any(c in OUTPUT_CAUSES for r in records for c in r.causes)
    title = (f"{workload.name} seed {args.seed}: {attempted} operations, "
             f"{failed} failed, outputs "
             f"{'correct' if correct else 'WRONG'}")
    lines = render(title + "\nend-to-end (untraced operations):", e2e)
    if tracer is not None:
        layers = layer_metrics(workload, records, tracer, import_profile)
        lines += render("per layer (traced operations):", layers)
        chosen = layers
    else:
        chosen = {k: e2e[k] for k in E2E_METRICS if k in e2e}
    failures = [f"  {r.op.label}: {', '.join(r.causes)}"
                + (f" ({r.error})" if r.error else "")
                for r in records if r.causes]
    if failures:
        lines += ["failed operations:"] + sorted(set(failures))
    if workload.oracle_disagreements:
        lines.append("interp tier disagrees with the closed form on: "
                     + ", ".join(workload.oracle_disagreements))

    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in chosen.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{int(args.trace)}"
    full = {"result": result,
            "end_to_end": {k: {"value": v, "unit": u, **d}
                           for k, (v, u, d) in e2e.items()},
            "operations": [{"op": r.op.label, "id": r.op_id,
                            "latency_s": r.latency, "traced": r.traced,
                            "calibration_s": r.calibration,
                            "causes": r.causes} for r in records]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(full, indent=1))
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.json")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    use_checkout_src()
    # every process started from here on is waited for before exit
    become_subreaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    TMP_ROOT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=TMP_ROOT)
    tempfile.tempdir = tmpdir
    os.environ["TMPDIR"] = tmpdir
    try:
        if args.setup_probe:
            workload = WORKLOADS[args.workload](args.seed, tmpdir)
            print(json.dumps({"setup_s": timed_setup(workload)}))
            return 0
        result, lines = run(args, tmpdir)
    finally:
        stop_all()
        shutil.rmtree(tmpdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
