"""Per-layer metrics from a traced run, and the printed report."""

from __future__ import annotations

import statistics

from perfbench.spans import op_breakdown

#: spans whose self time and call count are reported, per operation
SPAN_LAYERS = ("imports", "pipeline.cli", "pipeline.compile", "sedstage",
               "macros.build_processor", "m4.load_definitions", "m4.process",
               "fortran.parser", "analysis", "fortran.codegen",
               "pipeline.run", "sim.run", "pipeline.native",
               "runtime.thread", "runtime.process")
#: import-time groups: numpy and every repro subpackage
IMPORT_GROUPS = ("numpy", "_util", "analysis", "core", "faults", "fortran",
                 "m4", "machines", "macros", "obsv", "pipeline", "runtime",
                 "sedstage", "sim", "trace")
CLI_COMMANDS = ("translate", "check", "run_sim", "run_thread", "run_process")
SIM_COUNTS = ("statements", "events", "lock_acquisitions",
              "contended_acquisitions", "context_switches")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> its unit, in report order."""
    units = {"imports.total_s": "s"}
    units.update({f"imports.{g}_s": "s" for g in IMPORT_GROUPS})
    units.update({f"pipeline.cli.{c}_s": "s" for c in CLI_COMMANDS})
    units["pipeline.cli.nonimport_s"] = "s"
    for layer in SPAN_LAYERS:
        units[f"{layer}.self_s"] = "s/op"
        units[f"{layer}.calls"] = "1/op"
    units["other.self_s"] = "s/op"
    units["fortran.parser.units"] = "1/op"
    units["m4.output_bytes"] = "B/op"
    units.update({f"sim.{key}": "1/op" for key in SIM_COUNTS})
    units["sim.stmts_per_s"] = "1/s"
    units["sim.makespan_mismatches"] = "count"
    units["analysis.race_free_doalls"] = "count"
    units["analysis.doalls"] = "count"
    units["analysis.race_free_ratio"] = "ratio"
    units["fortran.codegen.kernelized_doalls"] = "count"
    units["fortran.codegen.kernel_eligible"] = "count"
    units["fortran.codegen.kernelized_ratio"] = "ratio"
    units["fortran.codegen.fallbacks"] = "count"
    units["runtime.thread.run_s"] = "s"
    units["runtime.process.run_s"] = "s"
    units["runtime.process.min_run_s"] = "s"
    units["trace.ops_per_s"] = "1/s"
    units["trace.untraced_ops_per_s"] = "1/s"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.balance_error_s"] = "s"
    return units


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(workload, records, tracer, import_profile=None) -> dict:
    """name -> (value, unit, detail) for every per-layer metric.

    Span metrics are means per traced operation; a layer the workload
    never enters reads 0.  ``import_profile`` is the ``-X importtime``
    grouping of an in-process set-up; cli-cold operations carry their
    own, averaged per operation.
    """
    units = per_layer_units()
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    n = len(traced)
    spans = tracer.spans
    breakdown = op_breakdown(spans)
    values: dict[str, float] = dict.fromkeys(units, 0.0)
    detail: dict[str, dict] = {}

    # self time and calls per layer, and the balance check
    calls: dict[str, int] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    worst = 0.0
    for record in traced:
        row = breakdown.get(record.op_id, {})
        worst = max(worst, abs(sum(row.values()) - record.latency))
        for name, seconds in row.items():
            key = f"{name}.self_s"
            values[key] = values.get(key, 0.0) + seconds / n
    for layer in SPAN_LAYERS:
        values[f"{layer}.calls"] = calls.get(layer, 0) / n
    values["trace.balance_error_s"] = worst

    # counters read at layer boundaries
    totals: dict[str, int] = {}
    for span in spans:
        for key, count in span.counts.items():
            totals[key] = totals.get(key, 0) + count
    values["fortran.parser.units"] = totals.get("units", 0) / n
    values["m4.output_bytes"] = totals.get("output_bytes", 0) / n
    for key in SIM_COUNTS:
        values[f"sim.{key}"] = totals.get(key, 0) / n
    sim_wall = sum(s.end - s.start for s in spans if s.name == "sim.run")
    values["sim.stmts_per_s"] = _ratio(totals.get("statements", 0), sim_wall)
    values["sim.makespan_mismatches"] = sum(
        1 for r in records if "makespan_mismatch" in r.causes)

    race_free = sum(c[0] for c in workload.doall_counts.values())
    doalls = sum(c[1] for c in workload.doall_counts.values())
    values["analysis.race_free_doalls"] = race_free
    values["analysis.doalls"] = doalls
    values["analysis.race_free_ratio"] = _ratio(race_free, doalls)
    detail["analysis.race_free_ratio"] = {"base": doalls,
                                          "programs": len(
                                              workload.doall_counts)}
    kern = workload.codegen_counts.values()
    kernelized = sum(c["kernelized"] for c in kern)
    eligible = sum(c["kernel_eligible"] for c in kern)
    values["fortran.codegen.kernelized_doalls"] = kernelized
    values["fortran.codegen.kernel_eligible"] = eligible
    values["fortran.codegen.kernelized_ratio"] = _ratio(kernelized, eligible)
    values["fortran.codegen.fallbacks"] = sum(c["fallbacks"] for c in kern)
    detail["fortran.codegen.kernelized_ratio"] = {
        "base": eligible, "configurations": len(workload.codegen_counts)}

    # native runtime spans
    program_of = {r.op_id: r.op.program for r in traced}
    runs: dict[str, dict[str, list[float]]] = {}
    for span in spans:
        if span.name in ("runtime.thread", "runtime.process"):
            runs.setdefault(span.name, {}).setdefault(
                program_of.get(span.op), []).append(span.end - span.start)
    for name in ("runtime.thread", "runtime.process"):
        per_program = runs.get(name, {})
        values[f"{name}.run_s"] = _median(
            d for ds in per_program.values() for d in ds)
    medians = {p: _median(ds) for p, ds in runs.get(
        "runtime.process", {}).items()}
    if medians:
        smallest = min(medians, key=medians.get)
        values["runtime.process.min_run_s"] = medians[smallest]
        detail["runtime.process.min_run_s"] = {"program": smallest}

    # cli commands and imports
    by_command: dict[str, list[float]] = {}
    for record in untraced:
        if record.op.kind in ("translate", "check", "run") and \
                workload.name == "cli-cold":
            command = workload.command(record.op).replace("-", "_")
            by_command.setdefault(command, []).append(record.latency)
    for command in CLI_COMMANDS:
        samples = by_command.get(command, [])
        values[f"pipeline.cli.{command}_s"] = _median(samples)
        detail[f"pipeline.cli.{command}_s"] = {"samples": len(samples)}
    profiles = [r.outcome.imports for r in traced
                if r.outcome is not None and r.outcome.imports]
    if profiles:
        import_spans = {s.op: s.end - s.start for s in spans
                        if s.name == "imports"}
        values["pipeline.cli.nonimport_s"] = _median(
            r.latency - import_spans[r.op_id] for r in traced
            if r.op_id in import_spans)
        groups = {g: statistics.fmean(p.get(g, 0.0) for p in profiles)
                  for g in ("total",) + IMPORT_GROUPS}
        detail["imports.total_s"] = {"samples": len(profiles),
                                     "source": "cli operations"}
    else:
        groups = import_profile or {}
        detail["imports.total_s"] = {"samples": 1 if groups else 0,
                                     "source": "fresh-process set-up"}
    for group in ("total",) + IMPORT_GROUPS:
        values[f"imports.{group}_s"] = groups.get(group, 0.0)

    # tracing overhead: the same operations, traced and not
    traced_rate = _ratio(n, sum(r.latency for r in traced))
    plain_rate = _ratio(len(untraced), sum(r.latency for r in untraced))
    values["trace.ops_per_s"] = traced_rate
    values["trace.untraced_ops_per_s"] = plain_rate
    values["trace.overhead_ratio"] = _ratio(traced_rate, plain_rate)
    detail["trace.overhead_ratio"] = {"base": "untraced ops_per_s",
                                      "samples": n}
    return {name: (values[name], unit, detail.get(name, {}))
            for name, unit in units.items()}


def render(title: str, metrics: dict) -> list[str]:
    """Human-readable lines: name, value, unit and sample details."""
    lines = [title]
    for name, (value, unit, info) in metrics.items():
        extra = ", ".join(f"{k}={v}" for k, v in info.items()
                          if not isinstance(v, (list, dict)))
        nested = {k: v for k, v in info.items() if isinstance(v, dict)}
        for key, sub in nested.items():
            extra += (", " if extra else "") + f"{key}: " + ", ".join(
                f"{k} {v}" for k, v in sub.items())
        lines.append(f"  {name:<40} {value:>14.6g} {unit:<7} {extra}")
    return lines
