"""Asynchronous (full/empty) variables for the native runtime (§3.4).

An :class:`AsyncVariable` carries a value plus a full/empty state:

* ``produce(v)`` waits for empty, writes, sets full;
* ``consume()`` waits for full, reads, sets empty;
* ``copy()`` waits for full, reads, leaves full;
* ``void()`` forces empty regardless of state;
* ``isfull`` tests the state without blocking.

On the HEP this was a hardware bit per memory cell; elsewhere the Force
used two locks per variable.  Here a condition variable provides the
same atomic state transition semantics.

Variables created through a :class:`~repro.runtime.force.Force` carry
the force's :class:`~repro.runtime.cancel.CancelToken`, so a wait for a
partner that died raises ``ForceCancelled`` instead of hanging (and
waits revalidate their predicate periodically, so a lost wakeup delays
a waiter by at most one revalidation slice rather than forever), an
optional ``on_block`` hook that reports time spent blocked (the
metrics registry's asyncvar blocked-time histogram), and an optional
:class:`~repro.trace.collector.TraceCollector` that records every
blocked ``produce``/``consume``/``copy`` as a complete trace span and
marks the waiter parked for the stall watchdog.
"""

from __future__ import annotations

import threading
from time import monotonic
from typing import TYPE_CHECKING, Any, Callable

from repro._util.errors import ForceError
from repro.runtime.cancel import CancelToken

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.trace.collector import TraceCollector


#: slots of a full/empty cell's storage
_FULL, _VALUE = 0, 1


class AsyncVariable:
    """One full/empty cell.

    The protocol reads and writes its state through ``_cell``, a
    two-slot ``[full, value]`` sequence: a list on the thread backend.
    The process backend hands in arena-backed storage and its
    cross-process condition instead (``_cell``/``_condition``).
    """

    __slots__ = ("_cell", "_condition", "_cancel", "_on_block",
                 "_tracer", "_injector", "_name")

    def __init__(self, value: Any = None, *, full: bool = False,
                 cancel: CancelToken | None = None,
                 on_block: Callable[[float], None] | None = None,
                 tracer: "TraceCollector | None" = None,
                 injector: "FaultInjector | None" = None,
                 name: str = "",
                 _cell=None, _condition=None) -> None:
        self._cell = [full, value] if _cell is None else _cell
        self._condition = threading.Condition() if _condition is None \
            else _condition
        self._cancel = cancel
        self._on_block = on_block
        self._tracer = tracer
        self._injector = injector
        self._name = name
        if cancel is not None:
            cancel.register(self._condition)

    def _fire(self, op: str) -> None:
        """Injection hook at operation start (no-op without a plan)."""
        if self._injector is not None:
            self._injector.fire(f"asyncvar.{op}", self._name)

    def _notify_all(self, op: str) -> None:
        """State-change wakeup; a lost-wakeup fault swallows it once
        (waiters still progress via the revalidating wait)."""
        if self._injector is not None and \
                self._injector.swallow_notify(f"asyncvar.{op}",
                                              self._name):
            return
        self._condition.notify_all()

    @property
    def isfull(self) -> bool:
        with self._condition:
            return bool(self._cell[_FULL])

    def _await(self, predicate: Callable[[], bool],
               timeout: float | None, failure: str,
               op: str = "wait") -> None:
        """Wait (condition held) until predicate; cancel-, metrics- and
        trace-aware.  The hooks fire only when the caller actually
        blocked, so a fast-path produce/consume records nothing."""
        if predicate():
            return
        tracer = self._tracer
        observed = self._on_block is not None or tracer is not None
        started = monotonic() if observed else 0.0
        if tracer is not None:
            tracer.mark_parked("asyncvar", self._name)
        try:
            if self._cancel is None:
                satisfied = self._condition.wait_for(predicate,
                                                     timeout=timeout)
            else:
                what = f"asyncvar '{self._name}'" if self._name \
                    else "asyncvar"
                satisfied = self._cancel.wait_for(self._condition,
                                                  predicate, timeout,
                                                  what=what)
            if not satisfied:
                raise ForceError(failure)
        finally:
            if tracer is not None:
                tracer.clear_parked()
                waited = monotonic() - started
                tracer.record("asyncvar", self._name, op, phase="X",
                              ts=tracer.now() - waited, dur=waited)
            if self._on_block is not None:
                self._on_block(monotonic() - started)

    def produce(self, value: Any, *, timeout: float | None = None) -> None:
        """Wait for empty, write ``value``, set full."""
        self._fire("produce")
        cell = self._cell
        with self._condition:
            self._await(lambda: not cell[_FULL], timeout,
                        "produce timed out (variable stayed full)",
                        op="produce")
            cell[_VALUE] = value
            cell[_FULL] = True
            self._notify_all("produce")

    def consume(self, *, timeout: float | None = None) -> Any:
        """Wait for full, read, set empty."""
        self._fire("consume")
        cell = self._cell
        with self._condition:
            self._await(lambda: cell[_FULL], timeout,
                        "consume timed out (variable stayed empty)",
                        op="consume")
            value = cell[_VALUE]
            cell[_FULL] = False
            self._notify_all("consume")
            return value

    def copy(self, *, timeout: float | None = None) -> Any:
        """Wait for full, read, leave full."""
        self._fire("copy")
        cell = self._cell
        with self._condition:
            self._await(lambda: cell[_FULL], timeout,
                        "copy timed out (variable stayed empty)",
                        op="copy")
            return cell[_VALUE]

    def void(self) -> None:
        """Set the state to empty regardless of its previous state."""
        self._fire("void")
        with self._condition:
            self._cell[_FULL] = False
            self._notify_all("void")


class AsyncArray:
    """An array of full/empty cells (HEP-style per-element state).

    ``_cells``/``_condition`` hand in per-cell storage and a shared
    condition, as for :class:`AsyncVariable`.
    """

    def __init__(self, size: int, *,
                 cancel: CancelToken | None = None,
                 on_block: Callable[[float], None] | None = None,
                 tracer: "TraceCollector | None" = None,
                 injector: "FaultInjector | None" = None,
                 name: str = "",
                 _cells=None, _condition=None) -> None:
        if size <= 0:
            raise ForceError("AsyncArray size must be positive")
        storage = [None] * size if _cells is None else _cells
        self._cells = [AsyncVariable(cancel=cancel, on_block=on_block,
                                     tracer=tracer, injector=injector,
                                     name=f"{name}[{index}]" if name
                                     else "",
                                     _cell=cell, _condition=_condition)
                       for index, cell in enumerate(storage)]

    def __len__(self) -> int:
        return len(self._cells)

    def __getitem__(self, index: int) -> AsyncVariable:
        return self._cells[index]

    def produce(self, index: int, value: Any, **kw) -> None:
        self._cells[index].produce(value, **kw)

    def consume(self, index: int, **kw) -> Any:
        return self._cells[index].consume(**kw)

    def copy(self, index: int, **kw) -> Any:
        return self._cells[index].copy(**kw)

    def void_all(self) -> None:
        for cell in self._cells:
            cell.void()
