"""Fail-fast cancellation for the native Force runtime.

When any process of a force raises, the whole program is dead: every
peer blocked in a barrier episode, an asynchronous-variable wait, an
Askfor ``get`` or a selfscheduled-loop entry/exit would otherwise sit
there until the join timeout expires and the error is misreported as a
deadlock.  A :class:`CancelToken` is the shared poison flag that turns
that hang into prompt propagation: the failing process calls
:meth:`CancelToken.cancel` with the original error, the token wakes
every registered condition variable, and each blocked peer raises
:class:`ForceCancelled` out of its construct.

Constructs that wait on a :class:`threading.Condition` register it with
the token (so cancellation is a ``notify_all``, not a poll); constructs
that wait on :class:`threading.Event` flags or plain locks use the
token's polling helpers with a short poll interval, bounding the
propagation latency without slowing the uncontended fast path.

:meth:`CancelToken.wait_for` is the runtime's one revalidating wait:
both backends' constructs park in it.  The process backend subclasses
the token so that its flag and first error live in shared memory
(``procforce._ArenaCancelToken``).
"""

from __future__ import annotations

import threading
from time import monotonic as _monotonic
from typing import Callable

from repro._util.errors import ForceDeadlockError, ForceError

#: poll interval for waits that cannot be woken by ``notify_all``
#: (events, semaphores, plain locks).  Bounds cancellation latency.
POLL_INTERVAL = 0.02

#: revalidation slice for condition waits: waiters wake this often to
#: re-check their predicate even if the wakeup that should have freed
#: them was lost, and to run hazard checks (dead-worker detection).
#: The default initial slice of :class:`CancelToken` waits; override
#: per force with ``Force(..., revalidate_interval=)``.
REVALIDATE_INTERVAL = 0.05

#: long parks back off: each consecutive slice of one wait doubles …
REVALIDATE_GROWTH = 2.0
#: … up to this multiple of the initial slice, so an idle waiter costs
#: a bounded number of wakeups per second instead of a fixed 20/s,
#: while lost-wakeup and dead-partner detection latency stays bounded.
REVALIDATE_CAP_FACTOR = 8.0


class ForceCancelled(ForceError):
    """The force was poisoned by another process's failure.

    Raised inside blocked constructs so every process unwinds promptly;
    ``Force.run`` filters these and re-raises the *original* failure.
    """

    def __init__(self, error: BaseException | None = None) -> None:
        self.error = error
        detail = f": {error}" if error is not None else ""
        super().__init__(f"force cancelled{detail}")


class CancelToken:
    """Shared poison flag with condition-variable wakeup.

    One token is shared by every construct of one :class:`Force` run.
    ``cancel(error)`` is idempotent: the first error wins and is the
    one re-raised by ``Force.run``.
    """

    __slots__ = ("_lock", "_flag", "_conditions", "_error",
                 "construct_timeout", "revalidate_interval")

    def __init__(self, *, construct_timeout: float | None = None,
                 revalidate_interval: float = REVALIDATE_INTERVAL) -> None:
        if revalidate_interval <= 0:
            raise ForceError("revalidate_interval must be positive")
        self._lock = threading.Lock()
        self._flag = threading.Event()
        self._conditions: list[threading.Condition] = []
        self._error: BaseException | None = None
        #: per-construct blocking deadline: a wait with no explicit
        #: timeout that exceeds this raises ForceDeadlockError naming
        #: the construct (and poisons the force), instead of hanging
        #: until the global join timeout.
        self.construct_timeout = construct_timeout
        #: initial revalidation slice; long parks back off from here
        #: (×:data:`REVALIDATE_GROWTH` per slice, capped at
        #: ×:data:`REVALIDATE_CAP_FACTOR`).
        self.revalidate_interval = revalidate_interval

    @property
    def cancelled(self) -> bool:
        return self._flag.is_set()

    @property
    def error(self) -> BaseException | None:
        """The first error passed to :meth:`cancel` (None until then)."""
        return self._error

    def register(self, condition: threading.Condition) -> None:
        """Add a condition to wake with ``notify_all`` on cancellation."""
        with self._lock:
            self._conditions.append(condition)

    def cancel(self, error: BaseException | None = None) -> None:
        """Poison the force; wake every registered waiter."""
        with self._lock:
            if self._flag.is_set():
                return
            self._error = error
            self._flag.set()
            conditions = list(self._conditions)
        for condition in conditions:
            with condition:
                condition.notify_all()

    def check(self) -> None:
        """Raise :class:`ForceCancelled` if the force is poisoned."""
        if self._flag.is_set():
            raise ForceCancelled(self.error)

    # ------------------------------------------------------------------
    # wait helpers
    # ------------------------------------------------------------------
    def _construct_deadline(self, timeout: float | None,
                            ) -> tuple[float | None, bool]:
        """(absolute deadline, is it the construct deadline?)."""
        if timeout is not None:
            return _monotonic() + timeout, False
        if self.construct_timeout is not None:
            return _monotonic() + self.construct_timeout, True
        return None, False

    def _deadlock(self, what: str) -> "ForceDeadlockError":
        """Build, propagate and return the construct-deadline error.

        The token is cancelled with the error first, so every peer
        parked elsewhere unwinds too and ``Force.run`` re-raises the
        structured error rather than a join timeout.
        """
        error = ForceDeadlockError(
            f"construct deadline of {self.construct_timeout}s exceeded "
            f"while parked on {what} (deadlock or dead partner?)",
            construct=what, timeout=self.construct_timeout)
        self.cancel(error)
        return error

    def wait_for(self, condition: threading.Condition,
                 predicate: Callable[[], bool],
                 timeout: float | None = None, *,
                 what: str = "construct",
                 hazard: Callable[[], BaseException | None] | None = None,
                 ) -> bool:
        """Token-aware ``Condition.wait_for`` (condition must be held).

        Returns the predicate result (False only on explicit timeout);
        raises :class:`ForceCancelled` if the token fires while
        waiting.  The condition must have been :meth:`register`-ed so
        that ``cancel`` wakes it.

        Waiting happens in bounded slices (starting at the token's
        ``revalidate_interval``) so a waiter whose wakeup was lost
        still revalidates its predicate, and the optional ``hazard``
        check runs periodically: if it returns an error (e.g. a dead
        partner was detected) the token is cancelled with it and it is
        raised here.  Consecutive slices of one park grow by
        :data:`REVALIDATE_GROWTH` up to :data:`REVALIDATE_CAP_FACTOR`
        × the interval, so a long park costs a bounded wakeup rate.
        Without an explicit ``timeout``, the token's
        ``construct_timeout`` bounds the wait with a
        :class:`ForceDeadlockError` naming ``what``.
        """
        deadline, is_construct = self._construct_deadline(timeout)
        interval = self.revalidate_interval
        cap = interval * REVALIDATE_CAP_FACTOR
        next_slice = interval
        while True:
            self.check()
            if predicate():
                return True
            if hazard is not None:
                error = hazard()
                if error is not None:
                    self.cancel(error)
                    raise error
            slice_ = next_slice
            next_slice = min(cap, next_slice * REVALIDATE_GROWTH)
            if deadline is not None:
                remaining = deadline - _monotonic()
                if remaining <= 0:
                    if is_construct:
                        raise self._deadlock(what)
                    return False
                slice_ = min(slice_, remaining)
            condition.wait(slice_)

    def wait_event(self, event: threading.Event, *,
                   what: str = "construct") -> None:
        """Wait for an event, polling the poison flag in between.

        Honours the construct deadline: a wait longer than
        ``construct_timeout`` raises :class:`ForceDeadlockError`.
        """
        deadline, is_construct = self._construct_deadline(None)
        while not event.wait(POLL_INTERVAL):
            self.check()
            if is_construct and _monotonic() >= deadline:
                raise self._deadlock(what)

    def acquire(self, lock, timeout: float | None = None, *,
                what: str = "lock") -> bool:
        """Token-aware acquire of a Lock/Semaphore (polling).

        Without an explicit ``timeout``, the construct deadline bounds
        the acquire with a :class:`ForceDeadlockError` naming ``what``.
        """
        deadline, is_construct = self._construct_deadline(timeout)
        while True:
            self.check()
            slice_ = POLL_INTERVAL
            if deadline is not None:
                remaining = deadline - _monotonic()
                if remaining <= 0:
                    if is_construct:
                        raise self._deadlock(what)
                    return False
                slice_ = min(slice_, remaining)
            if lock.acquire(timeout=slice_):
                return True
