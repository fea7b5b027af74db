"""Runtime statistics for the native Force (opt-in).

``Force(nproc, stats=True)`` reports per-construct counters and wait
times, in the spirit of the barrier/lock cost methodology of
Mellor-Crummey & Scott:

* barrier episodes completed, per-process wait times and their spread;
* critical-section acquisitions and contention per section name;
* selfscheduled chunks dispatched per loop label;
* Askfor pool traffic (``total_put``/``total_got``/max queue depth);
* asynchronous-variable blocked events and blocked time per name.

There is no separate collector: the interception points record into
the run's one :class:`~repro.obsv.metrics.ForceMetrics` registry
(which exists whenever ``stats=True`` or ``metrics=True``), and
:func:`stats_from_registry` derives the stats dict from it when read —
counters give the counts, histogram count/sum/min/max give the wait
sections.  :func:`render_stats` renders that dict; the ``force run
--stats`` CLI shares it with compiled-program simulation statistics so
both execution paths report through one format.
"""

from __future__ import annotations

from typing import Any

from repro.obsv.metrics import MetricsRegistry


def wait_dict(count: int, total: float, low: float,
              high: float) -> dict[str, float]:
    """The count/total/mean/min/max/spread section of a wait time.

    ``count == 0`` reports zeros, never a collector's +inf ``min``
    sentinel.
    """
    return {
        "count": count,
        "total_s": total,
        "mean_s": total / count if count else 0.0,
        "min_s": low if count else 0.0,
        "max_s": high if count else 0.0,
        "spread_s": (high - low) if count else 0.0,
    }


class WaitStat:
    """Count / total / min / max of wait durations (seconds)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def as_dict(self) -> dict[str, float]:
        return wait_dict(self.count, self.total, self.min, self.max)


def stats_from_registry(registry: MetricsRegistry,
                        nproc: int) -> dict[str, Any]:
    """The stats dict of a run, derived from its metrics registry.

    Pure: reads the ``force_*`` families a
    :class:`~repro.obsv.metrics.ForceMetrics` records and changes
    nothing.  An absent family yields the zero section an idle
    construct reports.
    """
    def by(family: str) -> dict[str, Any]:
        # every runtime family carries exactly one label (or none)
        return {labels[0][1] if labels else "": metric
                for labels, metric in registry.family(family).items()}

    def count(metric: Any) -> int:
        return int(metric.value) if metric is not None else 0

    def wait(hist: Any) -> dict[str, float]:
        if hist is None:
            return wait_dict(0, 0.0, 0.0, 0.0)
        return wait_dict(hist.count, hist.sum, hist.min, hist.max)

    contended = by("critical_contended_total")
    critical_wait = by("critical_wait_seconds")
    indices = by("selfsched_indices_total")
    max_chunk = by("selfsched_chunk_max")
    got = by("askfor_got_total")
    depth = by("askfor_depth_max")
    return {
        "nproc": nproc,
        "barriers": {
            "episodes": count(by("barrier_episodes_total").get("")),
            "wait": wait(by("barrier_wait_seconds").get("")),
        },
        "criticals": {
            name: {"acquisitions": count(acquired),
                   "contended": count(contended.get(name)),
                   "wait": wait(critical_wait.get(name))}
            for name, acquired in
            sorted(by("critical_acquisitions_total").items())
        },
        "selfsched": {
            label: {"chunks": count(chunks),
                    "indices": count(indices.get(label)),
                    "max_chunk": count(max_chunk.get(label))}
            for label, chunks in
            sorted(by("selfsched_chunks_total").items())
        },
        "askfor": {
            pool: {"total_put": count(put),
                   "total_got": count(got.get(pool)),
                   "max_depth": count(depth.get(pool))}
            for pool, put in sorted(by("askfor_put_total").items())
        },
        "asyncvar": {
            name: wait(hist) for name, hist in
            sorted(by("asyncvar_blocked_seconds").items())
        },
    }


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.2f}ms"


def render_stats(stats: dict[str, Any]) -> str:
    """Render a stats dict (native runtime and/or simulator sections).

    Understands the native sections produced by
    :func:`stats_from_registry` and a ``sim`` section produced by the
    pipeline (see :func:`repro.pipeline.run.sim_stats_dict`); unknown
    or absent sections are simply skipped, so both execution paths
    share this one renderer.
    """
    lines: list[str] = []

    sim = stats.get("sim")
    if sim:
        lines.append("--- simulation ---")
        lines.append(f"machine:             {sim['machine']}")
        lines.append(f"processes:           {sim['processes']}")
        lines.append(f"makespan:            {sim['makespan']} cycles")
        lines.append(f"utilization:         {sim['utilization']:.2%}")
        lines.append(f"lock acquisitions:   {sim['lock_acquisitions']} "
                     f"({sim['contended_acquisitions']} contended)")
        lines.append(f"spin cycles:         {sim['spin_cycles']}")
        lines.append(f"context switches:    {sim['context_switches']}")

    native = stats.get("native")
    if native:
        lines.append("--- native execution ---")
        lines.append(f"backend:             {native['backend']}")
        lines.append(f"processes:           {native['nproc']}")
        if native.get("wall_s") is not None:
            lines.append(f"wall clock:          "
                         f"{_fmt_s(native['wall_s'])}")

    barriers = stats.get("barriers")
    if barriers and barriers["wait"]["count"]:
        wait = barriers["wait"]
        lines.append("--- barriers ---")
        lines.append(f"episodes:            {barriers['episodes']}")
        lines.append(f"waits:               {wait['count']} "
                     f"(mean {_fmt_s(wait['mean_s'])}, "
                     f"max {_fmt_s(wait['max_s'])}, "
                     f"spread {_fmt_s(wait['spread_s'])})")

    # Per-name sections are sorted here too: a stats dict loaded back
    # from JSON renders in the same stable order regardless of
    # insertion.
    criticals = stats.get("criticals")
    if criticals:
        lines.append("--- critical sections ---")
        for name, entry in sorted(criticals.items()):
            wait = entry["wait"]
            lines.append(
                f"{name:18s} {entry['acquisitions']:>8d} acq, "
                f"{entry['contended']:>6d} contended, "
                f"waited {_fmt_s(wait['total_s'])}")

    selfsched = stats.get("selfsched")
    if selfsched:
        lines.append("--- selfscheduled loops ---")
        for label, entry in sorted(selfsched.items()):
            lines.append(
                f"{label:18s} {entry['chunks']:>8d} chunks, "
                f"{entry['indices']:>8d} indices "
                f"(max chunk {entry['max_chunk']})")

    askfor = stats.get("askfor")
    if askfor:
        lines.append("--- askfor pools ---")
        for name, entry in sorted(askfor.items()):
            lines.append(
                f"{name:18s} put {entry['total_put']}, "
                f"got {entry['total_got']}, "
                f"max depth {entry['max_depth']}")

    asyncvar = stats.get("asyncvar")
    if asyncvar:
        lines.append("--- asynchronous variables ---")
        for name, stat in sorted(asyncvar.items()):
            lines.append(
                f"{name:18s} {stat['count']:>8d} blocked waits, "
                f"{_fmt_s(stat['total_s'])} blocked")

    return "\n".join(lines)
