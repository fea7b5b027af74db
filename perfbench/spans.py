"""Spans around calls into the repro layers, installed from outside.

:func:`install` wraps each layer's public entry point (and the few calls
the pipeline makes internally) so that, while a :class:`Tracer` has an
operation open, every call records a span: name, start, end, parent and
operation id.  Spans stay in memory; :meth:`Tracer.dump` writes them out.
Only calls on the tracing thread are recorded -- the thread backend's
workers run inside the ``runtime.thread`` span and are covered by it.

A layer's self time is its span's duration minus its children's, so for
each operation the self times of all its spans, root included, add up to
the operation's wall time; the root's self time is reported as ``other``.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import importlib.machinery
import json
import sys
import threading
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, start, parent, op) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts: dict[str, int] = {}

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op,
                **({"counts": self.counts} if self.counts else {})}


class Tracer:
    """In-memory span recorder with one open operation at a time."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    @property
    def recording(self) -> bool:
        return self.op is not None and threading.get_ident() == self._thread

    @property
    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def open(self, name: str, op=None) -> Span:
        if op is not None:
            self.op = op
        parent = self._stack[-1] if self._stack else None
        span = Span(name, perf_counter(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span, end: float | None = None) -> None:
        span.end = perf_counter() if end is None else end
        self._stack.pop()
        if not self._stack:
            self.op = None

    def adopt(self, records: list[dict]) -> None:
        """Attach spans a child process recorded under the open span.

        ``perf_counter`` reads the system-wide monotonic clock, so the
        child's timestamps already sit on this process's time line.
        """
        base = len(self.spans)
        parent = self._stack[-1]
        for record in records:
            span = Span(record["name"], record["start"],
                        parent if record["parent"] is None
                        else base + record["parent"], self.op)
            span.end = record["end"]
            span.counts = dict(record.get("counts", {}))
            self.spans.append(span)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


# ----------------------------------------------------------------------
# counters read off a layer's result at its boundary
# ----------------------------------------------------------------------
def _count_units(span, result) -> None:
    span.counts["units"] = len(result.units)


def _count_bytes(span, result) -> None:
    span.counts["output_bytes"] = len(result)


def _count_sim(span, stats) -> None:
    for key in ("statements", "events", "lock_acquisitions",
                "contended_acquisitions", "context_switches"):
        span.counts[key] = getattr(stats, key)


#: (module, attribute, span name, counter); ``Class.method`` attributes
#: are patched on the class, plain functions in every module that
#: imported them by name
HOOKS = (
    ("repro.pipeline.compile", "force_translate", "pipeline.compile", None),
    ("repro.sedstage.force_rules", "translate_force_source", "sedstage",
     None),
    ("repro.macros.loader", "build_processor", "macros.build_processor",
     None),
    ("repro.m4.engine", "M4Processor.load_definitions",
     "m4.load_definitions", None),
    ("repro.m4.engine", "M4Processor.process", "m4.process", _count_bytes),
    ("repro.fortran.parser", "parse_source", "fortran.parser",
     _count_units),
    ("repro.analysis", "analyze_source", "analysis", None),
    ("repro.fortran.codegen", "CodegenProgram.unit_for", "fortran.codegen",
     None),
    ("repro.pipeline.run", "force_run", "pipeline.run", None),
    ("repro.sim.scheduler", "Scheduler.run", "sim.run", _count_sim),
    ("repro.pipeline.native", "native_run", "pipeline.native", None),
    ("repro.runtime.force", "Force.run", "runtime.thread", None),
    ("repro.runtime.procforce", "ProcessForce.run", "runtime.process",
     None),
)


def _skip(name: str, tracer: Tracer, args) -> bool:
    """Calls that belong to the enclosing span rather than their own."""
    if name == "m4.process":
        # load_definitions expands its file through process(); that is
        # definition loading, not program expansion
        current = tracer.current
        return current is not None and current.name == "m4.load_definitions"
    if name == "fortran.codegen":
        # unit_for is consulted on every unit call; only a first call
        # (which generates and compiles the unit) is codegen work
        codegen, unit = args[0], args[1]
        return unit.name in codegen._units
    return False


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording or _skip(name, tracer, args):
            return fn(*args, **kwargs)
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                counter(span, result)
            return result
        finally:
            tracer.close(span)
    traced.__perfbench_original__ = fn
    return traced


def _patch_module(module, tracer: Tracer) -> None:
    for modname, attr, name, counter in HOOKS:
        if modname != module.__name__:
            continue
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, _wrap(tracer, name, cls.__dict__[method],
                                       counter))
            continue
        original = getattr(module, attr)
        traced = _wrap(tracer, name, original, counter)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and \
                    getattr(other, attr, None) is original:
                setattr(other, attr, traced)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patch a hooked module that is imported after :func:`install`."""

    def __init__(self, tracer: Tracer, pending: set[str]) -> None:
        self.tracer = tracer
        self.pending = pending

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.pending:
            return None
        self.pending.discard(fullname)
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def exec_and_patch(module):
            exec_module(module)
            _patch_module(module, tracer)
        spec.loader.exec_module = exec_and_patch
        return spec


def install(tracer: Tracer, *, import_all: bool = True) -> None:
    """Wrap every hooked layer entry point so ``tracer`` sees its calls.

    With ``import_all`` false, hooked modules not yet imported are
    patched when something imports them, so tracing a command does not
    change which modules the command imports.
    """
    modules = []
    for modname in dict.fromkeys(hook[0] for hook in HOOKS):
        if modname not in sys.modules and import_all:
            importlib.import_module(modname)
        modules.append(modname)
    pending = set()
    for modname in modules:
        if modname in sys.modules:
            _patch_module(sys.modules[modname], tracer)
        else:
            pending.add(modname)
    if pending:
        sys.meta_path.insert(0, _PatchOnImport(tracer, pending))


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out


def op_breakdown(spans: list[Span]) -> dict:
    """Operation id -> {span name (root as ``other``): self seconds}.

    The values of one operation add up to its root span's wall time.
    """
    selfs = self_times(spans)
    out: dict = {}
    for span, own in zip(spans, selfs):
        name = "other" if span.parent is None else span.name
        row = out.setdefault(span.op, {})
        row[name] = row.get(name, 0.0) + own
    return out
