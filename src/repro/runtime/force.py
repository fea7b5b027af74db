"""The native Force: global parallelism over real threads.

One :class:`Force` instance executes one *program* — a callable of
``(force, me)`` — on ``nproc`` threads, mirroring the paper's model:
work is not assigned to specific processes but distributed over the
whole force by the constructs; variables are either shared (named
objects obtained from the force) or private (ordinary locals).

Failure semantics: the first process to raise poisons the whole force
through a shared :class:`~repro.runtime.cancel.CancelToken`.  Peers
blocked in any construct (barrier, critical, selfsched entry/exit,
askfor ``get``, async-variable wait) wake promptly with
``ForceCancelled``; :meth:`Force.run` re-raises the *original*
:class:`ForceProgramError` instead of reporting a join timeout.

Observability: ``Force(nproc, stats=True)`` reports per-construct
counters and wait times (see :mod:`repro.runtime.stats`), exposed via
:attr:`Force.stats` / :meth:`Force.stats_report` — a view of the same
metrics registry ``metrics=True`` exports, so every construct records
once.  ``Force(nproc, trace=True)`` additionally records a structured
event stream (see :mod:`repro.trace`) — barrier episodes, critical
wait/hold spans, selfscheduled chunks, askfor traffic, full/empty
blocking — exported via :meth:`Force.trace_events` to
Chrome-trace/JSONL/text; with ``watchdog_interval=seconds`` a stall
watchdog reports which process is parked on which construct whenever
the stream goes quiet.

Robustness: ``Force(nproc, construct_timeout=seconds)`` bounds every
*blocking construct wait* — a process parked longer raises a
structured :class:`~repro._util.errors.ForceDeadlockError` naming the
construct (and poisons the force) instead of hanging until the global
join timeout.  ``Force(nproc, inject=FaultPlan(...))`` arms the
deterministic fault injector (see :mod:`repro.faults`) at the same
interception points the metrics/trace hooks use; a process killed by an
injected ``die`` fault is detected by askfor/selfsched peers, which
poison the force with :class:`~repro._util.errors.ForceWorkerDied`
naming the dead process and the stranded construct.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from functools import partial
from time import monotonic
from typing import Any, Callable, Iterator

import numpy as np

from repro._util.errors import (
    ForceDeadlockError,
    ForceError,
    ForceWorkerDied,
)
from repro.faults.injector import FaultInjector, InjectedDeath
from repro.faults.plan import FaultPlan
from repro.obsv.metrics import ForceMetrics, MetricsRegistry
from repro.runtime.askfor import AskforMonitor
from repro.runtime.asyncvar import _FULL, _VALUE, AsyncArray, AsyncVariable
from repro.runtime.barriers import Barrier, make_barrier
from repro.runtime.cancel import (
    REVALIDATE_INTERVAL,
    CancelToken,
    ForceCancelled,
)
from repro.runtime.checkpoint import (
    CheckpointError,
    CheckpointPolicy,
    array_entry,
    askfor_entry,
    asyncarray_entry,
    asyncvar_entry,
    build_checkpoint,
    counter_entry,
    decode_array,
    load_checkpoint,
    validate_checkpoint,
    write_checkpoint,
)
from repro.runtime.resolve import Resolve
from repro.runtime.stats import render_stats, stats_from_registry
from repro.trace.collector import TraceCollector
from repro.trace.events import TraceEvent
from repro.trace.watchdog import StallWatchdog


class ForceProgramError(ForceError):
    """A process of the force raised; carries the original exception."""

    def __init__(self, me: int, original: BaseException) -> None:
        self.me = me
        self.original = original
        super().__init__(f"process {me} failed: {original!r}")

    def __reduce__(self):
        # BaseException's default __reduce__ would replay our derived
        # message as the two positional args; rebuild from the real
        # fields so the process backend can pickle failures.
        return (ForceProgramError, (self.me, self.original))


class SharedCounter:
    """A shared scalar cell (update it inside a critical section)."""

    __slots__ = ("value",)

    def __init__(self, value: Any = 0) -> None:
        self.value = value


#: selfsched dispatch policies, in record-code order
SCHEDULES = ("self", "chunked", "guided")

#: slots of a selfscheduled loop's state words, and the two phases
_PHASE, _INSIDE, _NEXT = range(3)
_ENTRY, _EXIT = 0, 1


def _name_clash(key: str, have: str, want: str) -> ForceError:
    """The error for a shared name reused across construct kinds."""
    return ForceError(f"shared object {key!r} already exists as {have}, "
                      f"not {want}")


class _SelfschedLoop:
    """One selfscheduled loop instance: the paper's entry/exit protocol.

    Entry admits processes until all have arrived, the first arrival
    initialising the shared index; the exit phase opens only once every
    process has entered, so a fast process cannot re-enter the loop
    (in an enclosing iteration) before slow ones arrive.

    The exit protocol runs in a ``finally`` so that a consumer that
    ``break``s out of the generator early (``GeneratorExit``) still
    leaves the loop — otherwise the inside count stays incremented and
    every later entry with the same label deadlocks.

    The protocol's state is three words ``[phase, inside, next]``: a
    list on the thread backend; the process backend hands in an arena
    record and its bus (``_state``/``_condition``).
    """

    def __init__(self, nproc: int, *,
                 cancel: CancelToken | None = None,
                 metrics: ForceMetrics | None = None,
                 tracer: TraceCollector | None = None,
                 injector: FaultInjector | None = None,
                 dead_check: Callable[[], list[int]] | None = None,
                 label: str = "",
                 chunk: int = 1,
                 schedule: str = "self",
                 _state=None, _condition=None) -> None:
        self.nproc = nproc
        self.chunk = chunk
        self.schedule = schedule
        self._condition = threading.Condition() if _condition is None \
            else _condition
        self._state = [_ENTRY, 0, 0] if _state is None else _state
        self._cancel = cancel
        self._metrics = metrics
        self._tracer = tracer
        self._injector = injector
        self._dead_check = dead_check
        self._label = label
        if cancel is not None:
            cancel.register(self._condition)

    def _describe(self) -> str:
        return f"selfsched '{self._label}'" if self._label \
            else "selfsched"

    def _dead_hazard(self) -> ForceWorkerDied | None:
        """A dead force member can never complete the entry/exit
        protocol: poison the loop instead of waiting forever."""
        if self._dead_check is None:
            return None
        dead = self._dead_check()
        if dead:
            return ForceWorkerDied(
                min(dead), self._describe(),
                detail="the loop protocol cannot complete")
        return None

    def _wait_for(self, predicate: Callable[[], bool]) -> None:
        """Wait (condition held) until predicate; poison-aware."""
        if self._cancel is None:
            while not predicate():
                self._condition.wait()
        else:
            self._cancel.wait_for(self._condition, predicate,
                                  what=self._describe(),
                                  hazard=self._dead_hazard)

    def iterate(self, first: int, last: int, step: int) -> Iterator[int]:
        if step == 0:
            raise ForceError("selfsched step must be nonzero")
        tracer = self._tracer
        state = self._state
        if tracer is not None:
            tracer.mark_parked("selfsched", self._label)
        with self._condition:
            self._wait_for(lambda: state[_PHASE] == _ENTRY)
            if state[_INSIDE] == 0:
                state[_NEXT] = first
            state[_INSIDE] += 1
            if state[_INSIDE] == self.nproc:
                state[_PHASE] = _EXIT
                self._condition.notify_all()
        if tracer is not None:
            tracer.clear_parked()
        try:
            while True:
                with self._condition:
                    if self._cancel is not None:
                        self._cancel.check()
                    value = int(state[_NEXT])
                    if step > 0:
                        remaining = (last - value) // step + 1 \
                            if value <= last else 0
                    else:
                        remaining = (last - value) // step + 1 \
                            if value >= last else 0
                    if remaining <= 0:
                        break
                    if self.schedule == "guided":
                        size = max(1, remaining // self.nproc)
                    else:
                        size = self.chunk
                    if size > remaining:
                        size = remaining
                    state[_NEXT] = value + size * step
                if self._metrics is not None:
                    self._metrics.selfsched_chunk(self._label, size)
                if tracer is not None:
                    tracer.record("selfsched", self._label, "chunk",
                                  index=value, size=size)
                if self._injector is not None:
                    self._injector.fire("selfsched.chunk",
                                        self._label)
                for offset in range(size):
                    yield value + offset * step
        finally:
            if isinstance(sys.exc_info()[1], InjectedDeath):
                # Abrupt injected death: no cleanup by design.  The
                # stranded entry/exit state is what the dead-worker
                # hazard above must detect in the surviving processes.
                pass
            elif self._cancel is not None and self._cancel.cancelled:
                # The force is poisoned: the exit phase may never open,
                # and waiting would raise ForceCancelled — from inside
                # GeneratorExit when an abandoned generator is closed.
                # The run's construct state is discarded anyway.
                pass
            else:
                if tracer is not None:
                    tracer.mark_parked("selfsched", self._label)
                with self._condition:
                    self._wait_for(lambda: state[_PHASE] == _EXIT)
                    state[_INSIDE] -= 1
                    if state[_INSIDE] == 0:
                        state[_PHASE] = _ENTRY
                        self._condition.notify_all()
                if tracer is not None:
                    tracer.clear_parked()


class Force:
    """A force of ``nproc`` processes executing one program.

    Process identifiers run 1..nproc, as in the Force.  All named
    shared objects (counters, arrays, async variables, queues, loops)
    are created on first use and shared by name.

    ``backend`` selects the execution vehicle: ``"thread"`` (default)
    runs the force on daemon threads in this process; ``"process"``
    returns a :class:`~repro.runtime.procforce.ProcessForce` whose
    members are real OS processes over POSIX shared memory — same API,
    true multi-core execution, but programs and their arguments must be
    picklable.
    """

    def __new__(cls, nproc: int = 1, *args: Any, **kwargs: Any) -> "Force":
        backend = kwargs.get("backend", "thread")
        if backend not in ("thread", "process"):
            raise ForceError(
                f"unknown backend {backend!r}: expected 'thread' or "
                "'process'")
        if cls is Force and backend == "process":
            from repro.runtime.procforce import ProcessForce
            return object.__new__(ProcessForce)
        return object.__new__(cls)

    def __init__(self, nproc: int, *,
                 backend: str = "thread",
                 barrier_algorithm: str = "central-counter",
                 timeout: float | None = 60.0,
                 construct_timeout: float | None = None,
                 stats: bool = False,
                 metrics: bool = False,
                 trace: bool = False,
                 trace_capacity: int = 65536,
                 inject: FaultPlan | None = None,
                 watchdog_interval: float | None = None,
                 watchdog_sink: Callable[[str], None] | None = None,
                 checkpoint: CheckpointPolicy | None = None,
                 restore: dict | str | None = None,
                 revalidate_interval: float = REVALIDATE_INTERVAL) -> None:
        if nproc < 1:
            raise ForceError("a force needs at least one process")
        if construct_timeout is not None and construct_timeout <= 0:
            raise ForceError("construct_timeout must be positive")
        if revalidate_interval <= 0:
            raise ForceError("revalidate_interval must be positive")
        self.nproc = nproc
        self.backend = backend
        self.timeout = timeout
        self.construct_timeout = construct_timeout
        self.revalidate_interval = revalidate_interval
        self._barrier_algorithm = barrier_algorithm
        self._stats_enabled = stats
        self._metrics_enabled = metrics
        self._trace_enabled = trace
        self._trace_capacity = trace_capacity
        self._fault_plan = inject
        self._watchdog_interval = watchdog_interval
        self._watchdog_sink = watchdog_sink
        self._checkpoint = checkpoint
        if isinstance(restore, str):
            restore = load_checkpoint(restore)
        elif restore is not None:
            problems = validate_checkpoint(restore)
            if problems:
                raise CheckpointError(
                    f"restore document is invalid: {problems[0]}")
        self._restore_doc = restore
        self._registry_lock = threading.Lock()
        self._local = threading.local()
        self._reset_state()

    def _reset_state(self) -> None:
        self._cancel = CancelToken(
            construct_timeout=self.construct_timeout,
            revalidate_interval=self.revalidate_interval)
        self._metrics = self._fresh_metrics()
        self._tracer: TraceCollector | None = \
            TraceCollector(self._trace_capacity) \
            if self._trace_enabled else None
        self._injector: FaultInjector | None = \
            FaultInjector(self._fault_plan, tracer=self._tracer) \
            if self._fault_plan is not None else None
        self._barrier: Barrier = make_barrier(self._barrier_algorithm,
                                              self.nproc,
                                              cancel=self._cancel)
        self._reset_registry()
        self._failures: list[ForceError] = []
        self._threads: dict[int, threading.Thread] = {}
        #: me -> site of an (injected) abrupt death, no cleanup done
        self._deaths: dict[int, str] = {}
        #: one word: completed barrier episodes (counted only while a
        #: checkpoint policy is armed); a restored run continues the
        #: snapshot's numbering so every-n scheduling stays aligned
        #: across resume.  The process backend moves it into the arena.
        self._epoch_word = [int(self._restore_doc["epoch"])
                            if self._restore_doc is not None else 0]
        if self._restore_doc is not None:
            self._apply_restore()

    def _reset_registry(self) -> None:
        """Empty the named-object registry (this process's view)."""
        self._criticals: dict[str, Any] = {}
        self._shared: dict[str, Any] = {}
        #: name -> construct kind ("shared_counter", "askfor", ...)
        self._kinds: dict[str, str] = {}
        self._loops: dict[str, _SelfschedLoop] = {}

    def _fresh_metrics(self) -> ForceMetrics | None:
        """The run's one registry: ``stats=True`` reads it as the stats
        view, ``metrics=True`` exports it."""
        return ForceMetrics() \
            if self._stats_enabled or self._metrics_enabled else None

    def _apply_restore(self) -> None:
        """Re-materialize the restore snapshot into this run's state.

        Called from :meth:`_reset_state` on the thread backend (the
        heap registry exists immediately); the process backend defers
        this until its shared-memory arena is set up.
        """
        self._materialize_shared(self._restore_doc)
        if self._tracer is not None:
            self._tracer.record(
                "recover", "checkpoint", "restore",
                epoch=self.barrier_epoch,
                snapshot_nproc=int(self._restore_doc["nproc"]),
                nproc=self.nproc)

    # ------------------------------------------------------------------
    # running a program
    # ------------------------------------------------------------------
    def run(self, program: Callable[["Force", int], Any],
            *args: Any) -> None:
        """Execute ``program(force, me, *args)`` on every process.

        The first failing process wins: its exception is wrapped in
        :class:`ForceProgramError`, the force is poisoned so blocked
        peers unwind promptly, and that original error is re-raised
        here.  ``timeout`` bounds the *whole* join, not each thread.
        """
        self._reset_state()
        token = self._cancel
        tracer = self._tracer

        def body(me: int) -> None:
            self._local.me = me
            if tracer is not None:
                tracer.register_lane(f"force-{me}")
                tracer.record("sched", f"force-{me}", "start")
            try:
                program(self, me, *args)
            except ForceCancelled:
                pass   # a peer failed first; unwind quietly
            except InjectedDeath as death:
                # Abrupt injected death: the thread vanishes without
                # poisoning the force or cleaning construct state —
                # surviving processes must *detect* it (dead-holder /
                # dead-partner hazards, construct deadlines).
                with self._registry_lock:
                    self._deaths[me] = death.spec.site
                if tracer is not None:
                    tracer.record("fault", death.spec.site, "death",
                                  proc=me)
            except (ForceDeadlockError, ForceWorkerDied) as exc:
                # Structured runtime verdicts: already propagated via
                # the token by whoever detected the condition; record
                # unwrapped so Force.run re-raises them as-is.
                with self._registry_lock:
                    self._failures.append(exc)
                token.cancel(exc)
            except BaseException as exc:   # noqa: BLE001 - reported below
                failure = ForceProgramError(me, exc)
                with self._registry_lock:
                    self._failures.append(failure)
                token.cancel(failure)
            finally:
                if tracer is not None:
                    tracer.record("sched", f"force-{me}", "end")
                    tracer.release_lane()
                self._local.me = None

        watchdog = None
        if tracer is not None and self._watchdog_interval is not None:
            watchdog = StallWatchdog(tracer, self._watchdog_interval,
                                     sink=self._watchdog_sink)
            watchdog.start()
        threads = [threading.Thread(target=body, args=(me,),
                                    name=f"force-{me}", daemon=True)
                   for me in range(1, self.nproc + 1)]
        self._threads = {me: thread for me, thread
                         in enumerate(threads, start=1)}
        try:
            for thread in threads:
                thread.start()
            deadline = None if self.timeout is None \
                else monotonic() + self.timeout
            for thread in threads:
                thread.join(None if deadline is None
                            else max(0.0, deadline - monotonic()))
        finally:
            if watchdog is not None:
                watchdog.stop()
        alive = [thread.name for thread in threads if thread.is_alive()]
        structured = (ForceProgramError, ForceDeadlockError,
                      ForceWorkerDied)
        failure = token.error if isinstance(token.error, structured) \
            else (self._failures[0] if self._failures else None)
        if failure is not None:
            raise failure
        if alive:
            parked = tracer.parked() if tracer is not None else {}
            still = []
            for name in alive:
                kind_name = parked.get(name)
                if kind_name is not None:
                    kind, construct = kind_name
                    where = f"{kind} '{construct}'" if construct else kind
                    still.append(f"{name} (parked on {where})")
                else:
                    still.append(name)
            error = ForceDeadlockError(
                f"force did not terminate within {self.timeout}s "
                "(deadlock or missing barrier partner?); still alive: "
                + ", ".join(still),
                construct=", ".join(still), timeout=self.timeout)
            # Poison the force so the stragglers unwind instead of
            # sitting parked in their constructs forever.
            token.cancel(error)
            raise error
        if self._deaths:
            # Every process terminated, but at least one died abruptly
            # without doing its share: the result cannot be trusted.
            # A structured error beats silent corruption.
            me_dead = min(self._deaths)
            raise ForceWorkerDied(
                me_dead, self._deaths[me_dead],
                detail="the run completed but the dead process's work "
                       "is missing")

    def _current_me(self) -> int | None:
        """This thread's process id, inside :meth:`run` (else None)."""
        return getattr(self._local, "me", None)

    def _dead_workers(self) -> list[int]:
        """Process ids that died abruptly (or exited without finishing
        a construct protocol their peers are still parked in).

        A thread that was never started has ``ident is None`` and does
        not count; a thread that finished *normally* counts only while
        a peer is actually blocked on it — which, for the construct
        protocols that consult this, already implies it quit without
        doing its part.
        """
        with self._registry_lock:
            dead = set(self._deaths)
        for me, thread in self._threads.items():
            if thread.ident is not None and not thread.is_alive():
                dead.add(me)
        return sorted(dead)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def _resolve_me(self, me: int | None) -> int:
        if me is not None:
            return me
        current = self._current_me()
        if current is not None:
            return current
        if self.nproc == 1:
            return 1
        raise ForceError(
            "barrier() called outside a force process; pass me explicitly")

    # -- checkpointing at the consistent cut ---------------------------
    def _episode_hook(self, user_section: Callable[[], None] | None = None
                      ) -> Callable[[], None] | None:
        """The single-process body run inside each barrier episode.

        With a checkpoint policy armed, the body counts the episode
        and — every n-th one — serializes the shared state right
        there, while every peer is still parked in the episode (the
        quiescent cut).  Returns None when nothing needs to run, so
        the plain ``wait`` path stays section-free.
        """
        if user_section is None and self._checkpoint is None:
            return None

        def section() -> None:
            if user_section is not None:
                user_section()
            policy = self._checkpoint
            if policy is not None:
                self._epoch_word[0] += 1
                epoch = int(self._epoch_word[0])
                if epoch % policy.every_n_barriers == 0:
                    self._write_checkpoint(epoch)
        return section

    def _run_episode(self, me: int, section: Callable[[], None]) -> bool:
        """Arrive with a section; True iff *this* process ran it.

        ``Barrier.run_section`` implementations disagree on their
        return value, so releasing is detected through the per-caller
        closure: the section runs in exactly one process, inside that
        process's own call frame.
        """
        ran: list[bool] = []

        def wrapped() -> None:
            section()
            ran.append(True)

        self._barrier.run_section(me, wrapped)
        return bool(ran)

    def _write_checkpoint(self, epoch: int) -> None:
        """Serialize shared state (caller is inside the episode)."""
        doc = build_checkpoint(epoch=epoch, nproc=self.nproc,
                               backend=self.backend,
                               constructs=self._capture_shared())
        path = write_checkpoint(self._checkpoint.dir, doc)
        nbytes = os.path.getsize(path)
        if self._tracer is not None:
            self._tracer.record("checkpoint", os.path.basename(path),
                                "write", epoch=epoch, bytes=nbytes)
        if self._metrics is not None:
            self._metrics.checkpoint_written(nbytes)

    @property
    def checkpoint_policy(self) -> CheckpointPolicy | None:
        return self._checkpoint

    @property
    def barrier_epoch(self) -> int:
        """Completed barrier episodes (counted while checkpointing)."""
        return int(self._epoch_word[0])

    def capture_state(self) -> dict[str, Any]:
        """Snapshot the current shared state as a checkpoint document.

        Meaningful at quiescence only — before :meth:`run`, after it
        returned, or inside a barrier section.  This is the
        differential-oracle entry point: two runs whose captured
        ``sha256`` digests agree have bitwise-identical shared state.
        """
        return build_checkpoint(epoch=self.barrier_epoch,
                                nproc=self.nproc, backend=self.backend,
                                constructs=self._capture_shared())

    def _shared_objects(self) -> list[tuple[str, Any]]:
        """(name, object) for every named shared construct."""
        with self._registry_lock:
            return list(self._shared.items())

    def _capture_shared(self) -> list[dict[str, Any]]:
        entries: list[dict[str, Any]] = []
        for name, obj in self._shared_objects():
            if isinstance(obj, SharedCounter):
                entries.append(counter_entry(name, obj.value))
            elif isinstance(obj, np.ndarray):
                entries.append(array_entry(name, obj))
            elif isinstance(obj, AsyncVariable):
                entries.append(asyncvar_entry(name, obj._cell[_FULL],
                                              obj._cell[_VALUE]))
            elif isinstance(obj, AsyncArray):
                entries.append(asyncarray_entry(
                    name, [(var._cell[_FULL], var._cell[_VALUE])
                           for var in obj._cells]))
            elif isinstance(obj, AskforMonitor):
                entries.append(askfor_entry(
                    name, list(obj._items),
                    total_put=obj.total_put,
                    total_got=obj.total_got,
                    max_depth=obj.max_depth,
                    done=obj.done))
            else:
                raise CheckpointError(
                    f"shared object {name!r} "
                    f"({type(obj).__name__}) cannot be checkpointed")
        return entries

    def _materialize_shared(self, doc: dict[str, Any]) -> None:
        """Rebuild the snapshot's constructs (any nproc).

        Runs through the public creators, so the registry (and, on the
        process backend, the arena allocation order) is exactly what a
        fresh run would build.
        """
        for entry in doc["payload"]["constructs"]:
            name, kind = entry["name"], entry["kind"]
            try:
                self._materialize_one(name, kind, entry)
            except (ForceError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"cannot restore {kind} {name!r} into the "
                    f"{self.backend} backend: {exc}") from exc

    def _materialize_one(self, name: str, kind: str,
                         entry: dict[str, Any]) -> None:
        if kind == "counter":
            self.shared_counter(name, initial=entry["value"])
        elif kind == "array":
            array = decode_array(entry)
            np.copyto(self.shared_array(name, array.shape,
                                        dtype=array.dtype), array)
        elif kind == "asyncvar":
            var = self.async_var(name)
            if entry["full"]:
                var._cell[_VALUE] = entry["value"]
                var._cell[_FULL] = True
        elif kind == "asyncarray":
            cells = entry["cells"]
            array = self.async_array(name, len(cells))
            for var, (full, value) in zip(array._cells, cells):
                if full:
                    var._cell[_VALUE] = value
                    var._cell[_FULL] = True
        elif kind == "askfor":
            pool = self.askfor(name, initial=list(entry["items"]))
            pool._restore(total_put=entry["total_put"],
                          total_got=entry["total_got"],
                          max_depth=entry["max_depth"],
                          done=entry["done"])
        else:   # pragma: no cover - gated by validate_checkpoint
            raise CheckpointError(f"unknown construct kind {kind!r}")

    def barrier(self, me: int | None = None) -> None:
        """Wait for the whole force (§3.4).

        ``me`` defaults to the calling process's own id (tracked per
        thread by :meth:`run`) — the structured barrier algorithms
        need a *valid* id, as each process owns distinct flag slots.
        """
        me = self._resolve_me(me)
        injector = self._injector
        if injector is not None:
            injector.fire("barrier.entry", "barrier", me)
        hook = self._episode_hook()
        tracer, metrics = self._tracer, self._metrics
        if tracer is None and metrics is None:
            released = self._barrier.wait(me) if hook is None \
                else self._run_episode(me, hook)
            if injector is not None and released:
                injector.fire("barrier.episode", "barrier", me)
            return
        if tracer is not None:
            tracer.mark_parked("barrier", "barrier")
        started = monotonic()
        released = self._barrier.wait(me) if hook is None \
            else self._run_episode(me, hook)
        waited = monotonic() - started
        if tracer is not None:
            tracer.clear_parked()
            tracer.record("barrier", "barrier", "wait", phase="X",
                          ts=tracer.now() - waited, dur=waited)
            if released:
                tracer.record("barrier", "barrier", "episode")
        if metrics is not None:
            metrics.barrier(waited, released)
        if injector is not None and released:
            injector.fire("barrier.episode", "barrier", me)

    def barrier_section(self, me: int,
                        section: Callable[[], None]) -> None:
        """Barrier whose section runs exactly once, before release."""
        me = self._resolve_me(me)
        injector = self._injector
        if injector is not None:
            injector.fire("barrier.entry", "barrier", me)
        hook = self._episode_hook(section)
        tracer, metrics = self._tracer, self._metrics
        if tracer is None and metrics is None:
            self._barrier.run_section(me, hook)
            return

        def counted() -> None:
            if metrics is not None:
                metrics.barrier_episode()
            if tracer is not None:
                tracer.record("barrier", "barrier", "episode")
            hook()

        if tracer is not None:
            tracer.mark_parked("barrier", "barrier")
        started = monotonic()
        self._barrier.run_section(me, counted)
        waited = monotonic() - started
        if tracer is not None:
            tracer.clear_parked()
            tracer.record("barrier", "barrier", "wait", phase="X",
                          ts=tracer.now() - waited, dur=waited)
        if metrics is not None:
            metrics.barrier_wait(waited)

    @contextmanager
    def critical(self, name: str = "default"):
        """Named critical section: mutual exclusion across the force."""
        with self._registry_lock:
            # Check-then-insert, NOT setdefault(name, self._new_lock()):
            # setdefault evaluates its default eagerly, allocating (and
            # discarding) a fresh lock on every pass through an already
            # -registered section — churn on the hot path, while holding
            # the registry lock.
            lock = self._criticals.get(name)
            if lock is None:
                lock = self._new_lock(name)
                self._criticals[name] = lock
        tracer, metrics = self._tracer, self._metrics
        injector = self._injector
        if injector is not None:
            injector.fire("critical.acquire", name)
        contended = False
        waited = 0.0
        timed = tracer is not None or metrics is not None
        if not lock.acquire(blocking=False):
            contended = True
            if tracer is not None:
                tracer.mark_parked("critical", name)
            started = monotonic()
            self._cancel.acquire(lock, what=f"critical '{name}'")
            waited = monotonic() - started
            if tracer is not None:
                tracer.clear_parked()
        held_from = monotonic() if timed else 0.0
        try:
            if injector is not None:
                # Lock held: a delay here is a slow holder, a raise
                # kills the holder (the lock is released on unwind).
                injector.fire("critical.hold", name)
            yield
        finally:
            lock.release()
            if timed:
                held = monotonic() - held_from
                if tracer is not None:
                    if contended:
                        tracer.record("critical", name, "wait",
                                      phase="X",
                                      ts=tracer.now() - held - waited,
                                      dur=waited)
                    tracer.record("critical", name, "hold", phase="X",
                                  ts=tracer.now() - held, dur=held)
                if metrics is not None:
                    metrics.critical(name, waited, contended, held)

    # ------------------------------------------------------------------
    # work distribution
    # ------------------------------------------------------------------
    def presched_range(self, me: int, first: int, last: int,
                       step: int = 1) -> Iterator[int]:
        """Prescheduled DOALL: cyclic index distribution, no sync."""
        if step == 0:
            raise ForceError("presched step must be nonzero")
        value = first + (me - 1) * step
        stride = self.nproc * step
        while (step > 0 and value <= last) or \
                (step < 0 and value >= last):
            yield value
            value += stride

    def selfsched_range(self, label: str, first: int, last: int,
                        step: int = 1, *, chunk: int = 1,
                        schedule: str | None = None) -> Iterator[int]:
        """Selfscheduled DOALL: indices handed out on demand.

        ``label`` identifies the loop (like the statement label in the
        Force); all processes must use the same label for one loop.

        ``schedule`` picks the dispatch policy: ``"self"`` hands out one
        iteration per critical-section acquisition (the paper's §4.2
        expansion), ``"chunked"`` claims ``chunk`` iterations at a time,
        and ``"guided"`` claims ``max(1, remaining // nproc)``.  When
        ``schedule`` is omitted it defaults to ``"chunked"`` if
        ``chunk > 1``, else ``"self"``.  All processes must agree on the
        policy for a given label.
        """
        if chunk < 1:
            raise ForceError("selfsched chunk must be >= 1")
        if schedule is None:
            schedule = "chunked" if chunk > 1 else "self"
        if schedule not in SCHEDULES:
            raise ForceError(
                f"unknown selfsched schedule {schedule!r}: "
                "expected 'self', 'chunked' or 'guided'")
        if schedule == "self" and chunk != 1:
            raise ForceError(
                "schedule 'self' hands out one iteration at a time; "
                "use schedule='chunked' with chunk > 1")
        with self._registry_lock:
            loop = self._loops.get(label)
            if loop is None:
                loop = self._new_loop(label, chunk, schedule)
                self._loops[label] = loop
            if loop.chunk != chunk or loop.schedule != schedule:
                raise ForceError(
                    f"selfsched '{label}': conflicting policy "
                    f"(existing {loop.schedule!r} chunk={loop.chunk}, "
                    f"requested {schedule!r} chunk={chunk})")
        return loop.iterate(first, last, step)

    def presched_pairs(self, me: int, outer: range,
                       inner: range) -> Iterator[tuple[int, int]]:
        """Prescheduled doubly-nested DOALL over index pairs."""
        pairs = len(outer) * len(inner)
        width = len(inner)
        for k in range(me - 1, pairs, self.nproc):
            yield outer[k // width], inner[k % width]

    def pcase(self, me: int, *sections) -> None:
        """Prescheduled Pcase: section k runs on process k mod nproc.

        Each section is a callable, or a ``(condition, callable)`` pair
        for a conditional section (``Csect``).
        """
        for k, section in enumerate(sections):
            if isinstance(section, tuple):
                condition, body = section
                enabled = condition() if callable(condition) \
                    else bool(condition)
            else:
                body, enabled = section, True
            if enabled and k % self.nproc == (me - 1):
                body()

    def askfor(self, name: str, initial: list | None = None
               ) -> AskforMonitor:
        """The named Askfor work pool (created on first use)."""
        return self._get_shared(name, "askfor",
                                lambda: self._new_askfor(name, initial))

    def resolve(self, name: str, weights: dict[str, float]) -> Resolve:
        """Partition the force into weighted components (extension)."""
        return self._get_shared(
            name, "resolve",
            lambda: Resolve(self.nproc, weights, cancel=self._cancel))

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def shared_counter(self, name: str, initial: Any = 0) -> SharedCounter:
        """A named shared scalar (guard updates with ``critical``)."""
        return self._get_shared(name, "shared_counter",
                                lambda: self._new_counter(name, initial))

    def shared_array(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """A named shared numpy array (zero-initialised)."""
        return self._get_shared(
            name, "shared_array",
            lambda: self._new_array(name, shape, dtype))

    def async_var(self, name: str) -> AsyncVariable:
        """A named asynchronous (full/empty) variable."""
        return self._get_shared(name, "async_var",
                                lambda: self._new_async_var(name))

    def async_array(self, name: str, size: int) -> AsyncArray:
        """A named array of full/empty cells."""
        if size <= 0:
            raise ForceError("AsyncArray size must be positive")
        array = self._get_shared(
            name, "async_array", lambda: self._new_async_array(name, size))
        if len(array) != size:
            raise ForceError(
                f"async_array '{name}' already exists with "
                f"{len(array)} cells, not {size}")
        return array

    def _asyncvar_hook(self, name: str) -> Callable[[float], None] | None:
        metrics = self._metrics
        return None if metrics is None \
            else partial(metrics.asyncvar_block, name)

    def _get_shared(self, name: str, kind: str,
                    factory: Callable[[], Any]) -> Any:
        with self._registry_lock:
            obj = self._shared.get(name)
            if obj is None:
                obj = factory()
                self._shared[name] = obj
                self._kinds[name] = kind
            elif self._kinds[name] != kind:
                raise _name_clash(f"s:{name}", self._kinds[name], kind)
            return obj

    # -- construct storage ---------------------------------------------
    # Each construct's protocol lives in its class; these factories
    # supply its storage.  The thread backend keeps state on the heap;
    # the process backend overrides them to hand in arena storage.
    def _new_lock(self, name: str) -> Any:
        return threading.Lock()

    def _new_loop(self, label: str, chunk: int, schedule: str,
                  **storage: Any) -> _SelfschedLoop:
        return _SelfschedLoop(self.nproc, cancel=self._cancel,
                              metrics=self._metrics, tracer=self._tracer,
                              injector=self._injector,
                              dead_check=self._dead_workers, label=label,
                              chunk=chunk, schedule=schedule, **storage)

    def _new_askfor(self, name: str, initial: list | None,
                    **storage: Any) -> AskforMonitor:
        return AskforMonitor(initial, cancel=self._cancel,
                             tracer=self._tracer, injector=self._injector,
                             name=name, **storage)

    def _new_counter(self, name: str, initial: Any) -> Any:
        return SharedCounter(initial)

    def _new_array(self, name: str, shape, dtype) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def _new_async_var(self, name: str, **storage: Any) -> AsyncVariable:
        return AsyncVariable(cancel=self._cancel,
                             on_block=self._asyncvar_hook(name),
                             tracer=self._tracer, injector=self._injector,
                             name=name, **storage)

    def _new_async_array(self, name: str, size: int,
                         **storage: Any) -> AsyncArray:
        return AsyncArray(size, cancel=self._cancel,
                          on_block=self._asyncvar_hook(name),
                          tracer=self._tracer, injector=self._injector,
                          name=name, **storage)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def stats_enabled(self) -> bool:
        return self._stats_enabled

    @property
    def trace_enabled(self) -> bool:
        return self._trace_enabled

    @property
    def metrics_enabled(self) -> bool:
        return self._metrics_enabled

    @property
    def trace_collector(self) -> TraceCollector | None:
        """The run's collector (None unless ``trace=True``)."""
        return self._tracer

    @property
    def trace_dropped(self) -> int:
        """Events lost to ring-buffer overflow (0 when trace is off)."""
        return self._tracer.dropped if self._tracer is not None else 0

    @property
    def fault_plan(self) -> FaultPlan | None:
        """The armed fault plan (None unless ``inject=`` was given)."""
        return self._fault_plan

    @property
    def injector(self) -> FaultInjector | None:
        """The last run's fault injector (None without a plan)."""
        return self._injector

    def injected_faults(self):
        """Faults the last run actually executed, in firing order."""
        return list(self._injector.injected) \
            if self._injector is not None else []

    def trace_events(self) -> list[TraceEvent]:
        """The recorded event stream, merged and time-ordered."""
        if self._tracer is None:
            raise ForceError(
                "trace collection is off; create Force(..., trace=True)")
        return self._tracer.events()

    def _settled_registry(self) -> MetricsRegistry:
        """The run's registry with the askfor gauges sampled (pools
        only know their totals after the run)."""
        for name, pool in self._shared_objects():
            if isinstance(pool, AskforMonitor):
                self._metrics.askfor(name, total_put=pool.total_put,
                                     total_got=pool.total_got,
                                     max_depth=pool.max_depth)
        return self._metrics.registry

    @property
    def stats(self) -> dict[str, Any] | None:
        """Snapshot of collected stats (None unless ``stats=True``)."""
        if not self._stats_enabled:
            return None
        return stats_from_registry(self._settled_registry(), self.nproc)

    def stats_report(self) -> str:
        """Human-readable rendering of :attr:`stats`."""
        snapshot = self.stats
        if snapshot is None:
            raise ForceError(
                "stats collection is off; create Force(..., stats=True)")
        return render_stats(snapshot)

    def metrics_registry(self, *,
                         wall_s: float | None = None) -> MetricsRegistry:
        """The run's metrics registry, with end-of-run gauges settled.

        Askfor pool gauges are sampled here, and ``wall_s`` — when the
        caller timed the run — lands as ``force_run_wall_seconds``.
        """
        if not self._metrics_enabled:
            raise ForceError(
                "metrics collection is off; create Force(..., metrics=True)")
        registry = self._settled_registry()
        self._metrics.run_info(self.nproc, wall_s=wall_s)
        return registry
