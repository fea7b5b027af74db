"""Performance forensics on top of the unified observability layer.

The modules here close the loop ROADMAP item 5 describes — the
runtime *records* barrier episodes, critical wait/hold spans,
selfscheduled chunk dispatches and askfor traffic (PR 1 stats, PR 3
traces), and this package turns those records into answers:

* :mod:`repro.obsv.metrics` — a typed metrics registry (counters,
  gauges, histograms with bounded reservoirs) fed live by both native
  backends and ingested from simulator runs, exported as Prometheus
  text or JSON (``force run --metrics``);
* :mod:`repro.obsv.analyze` — replay any trace into per-worker
  wait/hold/compute attribution, per-critical-name hold histograms,
  barrier-episode wait spread, and the critical path that bounds the
  makespan;
* :mod:`repro.obsv.profile` — the ``force profile`` reports:
  contention ranking, utilization timeline, folded stacks for
  speedscope / flamegraph.pl;
* :mod:`repro.obsv.tune` — the ``force tune`` recommender: replay a
  trace, extract per-iteration costs and lock overheads, predict each
  dispatch policy's makespan, and emit a versioned recommendation
  document (sched/chunk, spin budget, backend).
"""

from repro._util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obsv.metrics": ("ForceMetrics", "MetricsRegistry",
                           "registry_from_sim", "validate_metrics"),
    "repro.obsv.analyze": ("TraceAnalysis", "analyze_trace"),
    "repro.obsv.profile": ("render_profile",),
    "repro.obsv.tune": ("tune_from_events", "validate_recommendation"),
})
