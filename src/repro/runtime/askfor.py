"""The Askfor monitor [LO83]: dynamic work distribution (§3.3).

"This construct provides a means of work distribution in cases where
the degree of concurrency is not known at compile time" — workers ask
for work; any worker may add more; the monitor detects global
termination when the pool is empty and no worker still holds an item.

Termination/drain contract: ``get`` always drains queued items before
reporting termination, so every successfully ``put`` item is handed
out exactly once (``total_put == total_got`` at termination).  A
``put`` after the pool terminated raises, so no item is ever silently
dropped.  Monitors created through a Force carry its
:class:`~repro.runtime.cancel.CancelToken`: workers blocked in ``get``
raise ``ForceCancelled`` when a peer process fails.

Robustness: holders are tracked per worker (by *thread object* on the
thread backend, by process slot and pid on the process backend), so a
worker that dies while holding an item (abrupt death, injected or real)
is detected by any blocked ``get`` within one revalidation slice; the
pool then poisons the force with
:class:`~repro._util.errors.ForceWorkerDied` naming the dead process
and the pool — a structured error instead of a termination-protocol
hang.  With a fault injector attached
(``Force(..., inject=plan)``), ``put``/``got`` are injection sites and
``put``'s wakeup can be swallowed by a ``lost-wakeup`` fault (waiters
survive via the revalidating wait).
"""

from __future__ import annotations

import threading
from collections import deque
from time import monotonic
from typing import TYPE_CHECKING, Any, Iterator

from repro._util.errors import ForceError, ForceWorkerDied
from repro.runtime.cancel import CancelToken

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.trace.collector import TraceCollector


def _me_of_thread(thread: threading.Thread) -> int:
    """Force process id from a ``force-N`` thread name (else 0)."""
    name = thread.name
    if name.startswith("force-"):
        try:
            return int(name[6:])
        except ValueError:
            pass
    return 0


#: slots of a pool's state words
_DONE, _PUT, _GOT, _DEPTH = range(4)


class _ThreadHolders:
    """Which workers hold an item, keyed by thread identity.

    Holders are tracked by *thread object*, so a holder's liveness is
    its thread's: a worker that died holding an item is found by
    :meth:`reap`.
    """

    __slots__ = ("_threads",)

    def __init__(self) -> None:
        #: thread ident -> Thread for every worker holding an item
        self._threads: dict[int, threading.Thread] = {}

    def __len__(self) -> int:
        return len(self._threads)

    def claim(self) -> None:
        """Mark the caller as holding an item."""
        self._threads[threading.get_ident()] = threading.current_thread()

    def release(self) -> bool:
        """Unmark the caller; True iff it held an item."""
        return self._threads.pop(threading.get_ident(), None) is not None

    def reap(self) -> int | None:
        """Drop one dead holder and return its process id (else None)."""
        for ident, thread in list(self._threads.items()):
            if not thread.is_alive():
                del self._threads[ident]
                return _me_of_thread(thread)
        return None


class AskforMonitor:
    """A work pool with built-in termination detection.

    With a :class:`~repro.trace.collector.TraceCollector` attached
    (monitors created through ``Force(..., trace=True)``), the pool
    records ``put``/``got`` instants with queue depth and a complete
    span for every blocked wait, and marks the waiting process parked
    for the stall watchdog.

    The protocol works over four pieces of storage: the condition, the
    item queue (``append``/``popleft``/``len``), the state words
    ``[done, total_put, total_got, max_depth]`` and the holder table
    (``claim``/``release``/``reap``/``len``).  The thread backend keeps
    them on the heap (a deque, a list, :class:`_ThreadHolders`); the
    process backend hands in arena-backed ones and its bus through
    ``_storage``.
    """

    def __init__(self, initial: list | None = None, *,
                 cancel: CancelToken | None = None,
                 tracer: "TraceCollector | None" = None,
                 injector: "FaultInjector | None" = None,
                 name: str = "",
                 _storage: tuple | None = None) -> None:
        if _storage is None:
            self._items = deque(initial or [])
            depth = len(self._items)
            self._words = [False, depth, 0, depth]
            self._holders = _ThreadHolders()
            self._condition = threading.Condition()
            # A private condition has only getters waiting on it: one
            # wakeup per put is enough.
            self._wake = self._condition.notify
        else:
            self._condition, self._items, self._words, self._holders = \
                _storage
            # A condition shared with other constructs must wake all
            # its waiters, or a put could wake the wrong one.
            self._wake = self._condition.notify_all
        self._cancel = cancel
        self._tracer = tracer
        self._injector = injector
        self._name = name
        if cancel is not None:
            cancel.register(self._condition)

    @property
    def total_put(self) -> int:
        return int(self._words[_PUT])

    @property
    def total_got(self) -> int:
        return int(self._words[_GOT])

    @property
    def max_depth(self) -> int:
        """High-water mark of the queue depth (stats)."""
        return int(self._words[_DEPTH])

    @property
    def done(self) -> bool:
        """True once the pool declared termination."""
        return bool(self._words[_DONE])

    def _restore(self, *, total_put: int, total_got: int,
                 max_depth: int, done: bool) -> None:
        """Overwrite the state words from a checkpoint entry."""
        words = self._words
        words[_PUT], words[_GOT], words[_DEPTH] = \
            int(total_put), int(total_got), int(max_depth)
        words[_DONE] = bool(done)

    def _describe(self) -> str:
        return f"askfor '{self._name}'" if self._name else "askfor"

    def put(self, item: Any) -> None:
        """Add a work item (callable from inside a worker's body)."""
        injector = self._injector
        items, words = self._items, self._words
        with self._condition:
            if words[_DONE]:
                raise ForceError("putwork after the pool terminated")
            items.append(item)
            words[_PUT] += 1
            if len(items) > words[_DEPTH]:
                words[_DEPTH] = len(items)
            if self._tracer is not None:
                self._tracer.record("askfor", self._name, "put",
                                    depth=len(items))
            if injector is None or \
                    not injector.swallow_notify("askfor.put", self._name):
                self._wake()
        if injector is not None:
            # Outside the lock: a fault here models a producer that
            # crashed right after publishing work.
            injector.fire("askfor.put", self._name)

    def get(self) -> tuple[bool, Any]:
        """Ask for work: (True, item), or (False, None) at termination.

        A call to ``get`` also marks the caller's previous item (if
        any) complete — matching the Force askfor loop structure where
        each worker alternates get/process.  Queued items are drained
        even after termination was declared, so nothing is dropped.
        """
        tracer = self._tracer
        items, words, holders = self._items, self._words, self._holders
        with self._condition:
            if holders.release():
                self._condition.notify_all()
            wait_started: float | None = None
            while True:
                if self._cancel is not None:
                    self._cancel.check()
                if items:
                    holders.claim()
                    words[_GOT] += 1
                    item = items.popleft()
                    if tracer is not None:
                        self._trace_wait_end(wait_started)
                        tracer.record("askfor", self._name, "got",
                                      depth=len(items))
                    break
                if words[_DONE] or not holders:
                    words[_DONE] = True
                    self._condition.notify_all()
                    if tracer is not None:
                        self._trace_wait_end(wait_started)
                        tracer.record("askfor", self._name, "terminated")
                    return False, None
                if tracer is not None and wait_started is None:
                    wait_started = monotonic()
                    tracer.mark_parked("askfor", self._name)
                self._wait_for_change()
        if self._injector is not None:
            # Outside the lock, after the item was handed out: a
            # ``die`` here kills the worker *mid-chunk*, stranding the
            # holder count — the case dead-holder detection covers.
            self._injector.fire("askfor.got", self._name)
        return True, item

    def _wait_for_change(self) -> None:
        """Block (condition held) until the pool state may have moved.

        Cancel-aware waits revalidate periodically and run the
        dead-holder hazard, so a lost wakeup or a worker that died
        holding an item cannot hang the termination protocol.
        """
        if self._cancel is None:
            self._condition.wait()
            return
        items, words, holders = self._items, self._words, self._holders
        self._cancel.wait_for(
            self._condition,
            lambda: bool(items) or bool(words[_DONE]) or not holders,
            what=self._describe(),
            hazard=self._dead_holder_hazard)

    def _dead_holder_hazard(self) -> ForceWorkerDied | None:
        """A holder that died strands the pool: poison it."""
        me = self._holders.reap()
        if me is None:
            return None
        if self._tracer is not None:
            self._tracer.record("askfor", self._name, "dead-holder",
                                proc=me)
        return ForceWorkerDied(me, self._describe(),
                               detail="died while holding a work item")

    def _trace_wait_end(self, wait_started: float | None) -> None:
        """Close an open blocked-wait span (tracer known present)."""
        if wait_started is None:
            return
        tracer = self._tracer
        tracer.clear_parked()
        waited = monotonic() - wait_started
        tracer.record("askfor", self._name, "wait", phase="X",
                      ts=tracer.now() - waited, dur=waited)

    def __iter__(self) -> Iterator[Any]:
        """Iterate work items until global termination."""
        while True:
            got, item = self.get()
            if not got:
                return
            yield item
