"""The closed measuring loop, failure accounting and summary statistics."""

from __future__ import annotations

import math
import os
import resource
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter

from perfbench.procs import reap_strays

#: every way an operation can fail, in report order
CAUSES = ("exception", "exit", "deadline", "wrong_output",
          "makespan_mismatch", "shm_leak")
#: causes that mean an operation did not produce its reference output
OUTPUT_CAUSES = ("exception", "exit", "deadline", "wrong_output")

SHM_DIR = "/dev/shm"
SHM_PREFIX = "force-arena-"

#: iterations of the calibration loop (about 1.5 ms of CPython time)
CALIBRATION_ITERS = 5_000
#: what :func:`calibrate` takes on the reference host (its median on a
#: shared 2-vCPU x86-64 cloud VM with CPython 3.11); end-to-end timings
#: are scaled to that host's speed
CALIBRATION_REF_S = 0.008
#: operation seconds between two calibrations
CALIBRATE_EVERY_S = 0.25


class DeadlineExceeded(Exception):
    """An operation ran out of time: a deadline error from repro, or a
    subprocess killed at its timeout."""


@dataclass
class Record:
    """One executed operation."""

    op: object
    op_id: int
    latency: float
    traced: bool
    causes: list[str] = field(default_factory=list)
    outcome: object = None
    error: str | None = None
    #: :func:`calibrate` time taken just after the operation, if any
    calibration: float | None = None


def shm_segments() -> set[str]:
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return set()
    return {name for name in names if name.startswith(SHM_PREFIX)}


def reclaim(segments: set[str]) -> None:
    """Unlink arena segments an operation left behind."""
    for name in segments:
        try:
            os.unlink(os.path.join(SHM_DIR, name))
        except OSError:
            pass


def run_op(workload, op, op_id: int, tracer=None) -> Record:
    """Execute one operation, timed, then check it against the oracle.

    Checking happens after the clock stops, and so does waiting for any
    process the operation left behind.  With a ``tracer`` the operation
    runs inside a root span whose duration is the latency.
    """
    before = shm_segments() if op.native else None
    root = tracer.open("op", op=op_id) if tracer is not None else None
    started = root.start if root is not None else perf_counter()
    outcome, causes, error = None, [], None
    try:
        outcome = workload.execute(op, traced=tracer is not None)
    except DeadlineExceeded as exc:
        causes, error = ["deadline"], str(exc)
    except Exception as exc:     # any failure of the system under test
        causes, error = ["exception"], f"{type(exc).__name__}: {exc}"
    finished = perf_counter()
    if root is not None:
        if outcome is not None and outcome.spans:
            tracer.adopt(outcome.spans)
        tracer.close(root, end=finished)
    reap_strays()
    record = Record(op, op_id, finished - started, tracer is not None,
                    causes, outcome, error)
    if outcome is not None:
        if outcome.exit_code:
            record.causes.append("deadline" if outcome.exit_code == 3
                                 else "exit")
        else:
            record.causes.extend(workload.check(op, outcome))
    if before is not None:
        leaked = shm_segments() - before
        if leaked:
            record.causes.append("shm_leak")
            reclaim(leaked)
    return record


def _spin() -> None:
    table: dict[int, int] = {}
    total = 0
    for i in range(CALIBRATION_ITERS):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += len(str(i))


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now, run once alone,
    then in two threads, then in this process and a forked child.

    A shared host's speed drifts by up to about 2x in phases that last
    minutes, longer than a run, and the drift is larger when both cores
    are busy; the three runs mirror the simulator, thread and process
    operations, so their sum tracks how fast the host runs each of them
    and timings can be scaled to a host of reference speed.  It calls
    nothing in repro.
    """
    started = perf_counter()
    _spin()
    threads = [threading.Thread(target=_spin) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    pid = os.fork()
    if pid == 0:
        try:
            _spin()
        finally:
            os._exit(0)
    _spin()
    os.waitpid(pid, 0)
    return perf_counter() - started


def measure(workload, seconds: float, tracer=None) -> list[Record]:
    """Run whole passes of the workload's schedule, one at a time.

    Stops at the first pass boundary after ``seconds`` of operation
    time.  With a ``tracer`` every operation runs twice, untraced and
    traced, in alternating order, so the two sets see the same inputs.
    The host speed is calibrated after every :data:`CALIBRATE_EVERY_S`
    of operation time.
    """
    records: list[Record] = []
    busy = 0.0
    since_calibration = 0.0
    op_id = 0
    for ops in workload.passes():
        for op in ops:
            if tracer is None:
                pair = [run_op(workload, op, op_id)]
            elif op_id % 2:
                pair = [run_op(workload, op, op_id, tracer),
                        run_op(workload, op, op_id)]
            else:
                pair = [run_op(workload, op, op_id),
                        run_op(workload, op, op_id, tracer)]
            records.extend(pair)
            busy += sum(r.latency for r in pair)
            since_calibration += sum(r.latency for r in pair)
            if since_calibration >= CALIBRATE_EVERY_S:
                pair[-1].calibration = calibrate()
                since_calibration = 0.0
            op_id += 1
        if busy >= seconds:
            return records
    return records


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``; with ten samples
    or fewer it is the maximum, with fewer than ten beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, kids


def failure_counts(records: list[Record]) -> dict[str, int]:
    counts = dict.fromkeys(CAUSES, 0)
    for record in records:
        for cause in set(record.causes):
            counts[cause] += 1
    return counts


def end_to_end(records: list[Record], setup_samples: list[float],
               setup_calibrations: list[float]) -> dict:
    """The end-to-end metrics with their sample counts and notes.

    Timings are scaled to a host of reference speed: multiplied by
    :data:`CALIBRATION_REF_S` over the median :func:`calibrate` time of
    the run.  The raw figures are kept in each metric's notes.
    """
    latencies = [r.latency for r in records]
    n = len(latencies)
    failed = sum(1 for r in records if r.causes)
    tail_value, tail_pct, beyond = tail(latencies)
    own, kids = peak_rss_mb()
    makespans = distinct_makespans(records)
    calibrations = setup_calibrations + [
        r.calibration for r in records if r.calibration is not None]
    host_s = statistics.median(calibrations)
    scale = CALIBRATION_REF_S / host_s
    setup_raw = statistics.median(setup_samples)
    rate_raw = n / sum(latencies)
    p50_raw = statistics.median(latencies)
    host = {"calibration_s": host_s, "calibrations": len(calibrations),
            "scale": scale}
    out = {
        "setup_s": (setup_raw * scale, "s",
                    {"samples": len(setup_samples), "raw": setup_raw,
                     "values": setup_samples, **host}),
        "ops_per_s": (rate_raw / scale, "1/s",
                      {"samples": n, "raw": rate_raw,
                       "op_seconds": sum(latencies), **host}),
        "op_p50_s": (p50_raw * scale, "s",
                     {"samples": n, "raw": p50_raw, **host}),
        "op_tail_s": (tail_value * scale, "s",
                      {"samples": n, "raw": tail_value,
                       "percentile": round(tail_pct, 2),
                       "samples_beyond": beyond, **host}),
        "failed_ops_ratio": (failed / n, "ratio",
                             {"samples": n, "failed": failed,
                              "by_cause": failure_counts(records)}),
        "ok_ops_ratio": ((n - failed) / n, "ratio",
                         {"samples": n, "ok": n - failed}),
        "peak_rss_mb": (max(own, kids), "MB",
                        {"self_mb": own, "largest_child_mb": kids}),
    }
    if makespans:
        out["sim_makespan_gmean"] = (
            gmean(makespans.values()), "cycles",
            {"samples": len(makespans),
             "note": "one makespan per distinct (program, machine)"})
    return out


def distinct_makespans(records: list[Record]) -> dict:
    """(program, machine) -> the makespan its simulated runs reported."""
    out = {}
    for record in records:
        outcome = record.outcome
        if outcome is not None and outcome.makespan:
            out.setdefault((record.op.program, record.op.machine),
                           outcome.makespan)
    return out


# ----------------------------------------------------------------------
# python -X importtime
# ----------------------------------------------------------------------
def import_groups(stderr: str) -> dict[str, float]:
    """Seconds of import time per group, from ``-X importtime`` output.

    A module in ``numpy`` or ``repro.<sub>`` is charged to that group;
    any other module to the nearest such module that imported it, and
    to nothing when none did.  ``total`` sums the groups.
    """
    pending: list[tuple[int, dict]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        level = (len(raw) - len(raw.lstrip()) - 1) // 2
        node = {"name": raw.strip(), "self": int(parts[0]) / 1e6,
                "children": []}
        while pending and pending[-1][0] > level:
            node["children"].append(pending.pop()[1])
        pending.append((level, node))
    totals: dict[str, float] = {}

    def charge(node, group):
        group = _import_group(node["name"]) or group
        if group is not None:
            totals[group] = totals.get(group, 0.0) + node["self"]
        for child in node["children"]:
            charge(child, group)

    for _, node in pending:
        charge(node, None)
    totals["total"] = sum(totals.values())
    return totals


def _import_group(module: str) -> str | None:
    if module == "numpy" or module.startswith("numpy."):
        return "numpy"
    if module == "repro":
        return "repro"
    if module.startswith("repro."):
        return module.split(".")[1]
    return None
