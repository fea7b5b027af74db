"""Unified observability layer for both Force execution paths.

The native runtime (:mod:`repro.runtime`) and the simulator
(:mod:`repro.sim`) record the same structured :class:`TraceEvent`
stream — barrier episodes, critical-section wait/hold, selfscheduled
chunk dispatch, askfor traffic, full/empty blocking — so one set of
exporters, summaries and diagnostics serves both:

* :class:`TraceCollector` — bounded per-process ring buffers, written
  lock-free by the owning thread; negligible overhead when absent
  (every interception point pays a single ``is None`` test, exactly
  like the metrics registry);
* :mod:`repro.trace.export` — Chrome trace-event JSON (open the file
  in Perfetto or ``chrome://tracing``), JSONL, and the classic text
  timeline, all rendered from the one event model;
* :mod:`repro.trace.adapter` — converts the simulator's
  ``(time, process, text)`` trace triples into the same model;
* :class:`StallWatchdog` — a daemon sampler that dumps which process
  is parked on which construct when the event stream goes quiet;
* :mod:`repro.trace.summary` — post-processes a trace (events or a
  written file) into per-construct summaries, the ``force trace``
  subcommand.
"""

from repro._util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.trace.events": ("KINDS", "TraceEvent"),
    "repro.trace.collector": ("TraceCollector",),
    "repro.trace.watchdog": ("StallWatchdog", "render_stall_report"),
    "repro.trace.adapter": ("events_from_sim_trace",),
    "repro.trace.export": ("to_chrome", "to_jsonl", "to_text",
                           "write_trace_file", "load_trace_file",
                           "validate_chrome_trace"),
    "repro.trace.summary": ("summarize_events", "render_trace_summary"),
})
