"""The process-based Force backend: true multi-core execution.

``Force(nproc, backend="process")`` returns a :class:`ProcessForce`
whose members are real OS processes (``multiprocessing`` fork
context): the paper's methodology applied to the Python host itself.
Where the thread backend shares objects through the interpreter heap,
this backend places every shared construct — counters, arrays,
full/empty variables, askfor pools, critical-section lock words,
barrier state, selfscheduled-loop records — in one POSIX
shared-memory segment (:class:`repro.machines.memory.SharedArena`)
and accesses it through numpy views, so workers bypass the GIL
entirely.

As in the paper, where only locks, shared-memory binding and process
create/join are rewritten per machine, this module is the backend's
machine-dependent layer and nothing more: the arena layout, the name
registry, the poison word and pickled-error slot, pid liveness and the
worker lifecycle (fork, ship, absorb, unlink).  Every construct
protocol exists once, in the module that holds it for both backends —
the revalidating wait in :class:`~repro.runtime.cancel.CancelToken`,
selfscheduled dispatch in ``force._SelfschedLoop``, full/empty
variables in :mod:`repro.runtime.asyncvar`, Askfor termination in
:mod:`repro.runtime.askfor`, and the injection/trace/metrics wrappers
of ``barrier``/``barrier_section``/``critical`` in
:class:`~repro.runtime.force.Force`.  This backend reaches them by
handing in its storage (arena words for the state, the askfor ring,
the critical lock words), its cross-process bus as their condition,
and :class:`_ArenaCancelToken`, whose poison flag lives in the arena.

The public API is the thread backend's, unchanged:

* constructs: ``barrier`` / ``barrier_section`` / ``critical`` /
  ``selfsched_range`` / ``presched_range`` / ``presched_pairs`` /
  ``pcase`` / ``askfor`` / ``shared_counter`` / ``shared_array`` /
  ``async_var`` / ``async_array``;
* fail-fast semantics: the first failing worker poisons the force
  through a shared poison word + pickled-error slot, peers unwind with
  ``ForceCancelled``, and :meth:`ProcessForce.run` re-raises the
  original error;
* ``construct_timeout`` bounds every blocking wait with a structured
  :class:`~repro._util.errors.ForceDeadlockError`;
* metrics (which the stats view reads) and traces are collected per
  worker and merged in the parent;
* fault-injection sites fire at the same (site, name, occurrence)
  coordinates — hit counters live in the arena so the n-th occurrence
  is global across processes, exactly as the thread backend counts
  globally across threads.

Contract differences (documented in ``docs/LANGUAGE.md``):

* programs and their arguments must be **picklable** (enforced up
  front with a clear error) — the groundwork distributed execution
  needs;
* shared values are **numeric** (float64 cells); arbitrary Python
  objects cannot live in shared memory, and an askfor pool holds at
  most 4,096 outstanding items;
* shared-memory lifetime is owned by the parent: the segment is
  unlinked in a ``finally`` covering normal exit, injected deaths,
  cancellation and timeouts — no leaked ``/dev/shm`` entries.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import threading
from time import monotonic, sleep
from typing import Any, Callable, Iterator

import numpy as np

from repro._util.errors import (
    ForceDeadlockError,
    ForceError,
    ForceWorkerDied,
)
from repro.faults.injector import FaultInjector, InjectedDeath
from repro.machines.memory import SharedArena, sweep_stale_arenas
from repro.runtime.askfor import _DEPTH, _PUT, AskforMonitor
from repro.runtime.asyncvar import _FULL, AsyncArray, AsyncVariable
from repro.runtime.barriers import Barrier
from repro.runtime.cancel import CancelToken, ForceCancelled
from repro.runtime.checkpoint import CheckpointError
from repro.runtime.force import (
    SCHEDULES,
    Force,
    ForceProgramError,
    SharedCounter,
    _name_clash,
    _SelfschedLoop,
)
from repro.obsv.metrics import ForceMetrics
from repro.trace.collector import TraceCollector
from repro.trace.events import TraceEvent

#: maximum pickled size of the first-failure error (arena slot)
_ERROR_CAPACITY = 65536
#: shared-object registry capacity (named constructs per run)
_REGISTRY_CAPACITY = 512
#: bytes reserved per registered name
_NAME_BYTES = 64
#: askfor ring capacity (outstanding numeric work items)
_ASKFOR_RING = 4096
#: bytes reserved per recorded death site
_SITE_BYTES = 32

#: registry kind codes
_K_CRITICAL = 1
_K_COUNTER = 2
_K_ARRAY = 3
_K_ASYNC = 4
_K_ASKFOR = 5
_K_LOOP = 6
_K_ASYNC_ARRAY = 7

_KIND_LABEL = {
    _K_CRITICAL: "critical", _K_COUNTER: "shared_counter",
    _K_ARRAY: "shared_array", _K_ASYNC: "async_var",
    _K_ASKFOR: "askfor", _K_LOOP: "selfsched",
    _K_ASYNC_ARRAY: "async_array",
}

#: dtype codes for shared arrays
_DTYPES = {1: np.float64, 2: np.int64, 3: np.bool_,
           4: np.int32, 5: np.float32}
_DTYPE_CODES = {np.dtype(d): code for code, d in _DTYPES.items()}


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:     # pragma: no cover - other-user pid
        return True
    return True


class _SharedHitInjector(FaultInjector):
    """Fault injector whose hit counters live in the shared arena.

    The thread backend counts occurrences globally across threads
    under one lock; to preserve "the n-th matching hit fires" across
    *processes*, hits and fired flags are int64 arena cells mutated
    under the backend's cross-process bus lock.
    """

    def __init__(self, plan, *, tracer=None,
                 hits: np.ndarray, fired: np.ndarray, bus) -> None:
        super().__init__(plan, tracer=tracer)
        self._shared_hits = hits
        self._shared_fired = fired
        self._bus = bus

    def _due(self, site, name, me, kinds):
        with self._bus:
            due = None
            for index, spec in enumerate(self.plan.faults):
                if spec.kind not in kinds or self._shared_fired[index]:
                    continue
                if not spec.matches(site, name, me):
                    continue
                self._shared_hits[index] += 1
                if int(self._shared_hits[index]) == spec.occurrence \
                        and due is None:
                    self._shared_fired[index] = 1
                    due = spec
            if due is not None:
                self._record(due, site, name, me)
            return due


class _ArenaCancelToken(CancelToken):
    """The force's :class:`CancelToken` with its poison flag in the arena.

    ``cancel`` records the first error in the poison word and the
    pickled-error slot and wakes every waiter on the bus; ``check``
    and ``error`` read them back, so any member's failure cancels every
    member.  Each construct waits on the bus, which ``cancel`` always
    notifies, so conditions need no registration.
    """

    __slots__ = ("_arena", "_bus", "_word", "_slot")

    def __init__(self, arena: SharedArena, bus, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._arena = arena
        self._bus = bus
        self._word = arena.alloc_view(2)        # [flag, error length]
        self._slot = arena.alloc(_ERROR_CAPACITY)

    @property
    def cancelled(self) -> bool:
        return bool(self._word[0])

    @property
    def error(self) -> BaseException | None:
        if not self._word[0]:
            return None
        length = int(self._word[1])
        if length <= 0:
            return ForceError("force cancelled (unrecorded error)")
        raw = bytes(self._arena.view(self._slot, length, np.uint8))
        try:
            return pickle.loads(raw)
        except Exception:       # pragma: no cover - defensive
            return ForceError("force cancelled (undecodable error)")

    def register(self, condition) -> None:
        pass

    def cancel(self, error: BaseException | None = None) -> None:
        with self._bus:
            if self._word[0]:
                return
            try:
                raw = pickle.dumps(error)
            except Exception:
                raw = pickle.dumps(ForceError(str(error)))
            if len(raw) > _ERROR_CAPACITY:
                raw = pickle.dumps(ForceError(str(error)[:1024]))
            view = self._arena.view(self._slot, len(raw), np.uint8)
            view[:] = np.frombuffer(raw, dtype=np.uint8)
            self._word[1] = len(raw)
            self._word[0] = 1
            self._bus.notify_all()

    def check(self) -> None:
        if self._word[0]:
            raise ForceCancelled(self.error)


class _ArenaBarrier(Barrier):
    """Sense-reversing central counter over ``[count, sense]`` words.

    Arrivals wait on the bus; a member that died can never arrive, so
    the dead-worker hazard poisons the episode instead of waiting.
    """

    def __init__(self, force: "ProcessForce") -> None:
        super().__init__(force.nproc, cancel=force._cancel)
        self._bus = force._bus
        self._words = force._arena.alloc_view(2)
        self._dead_workers = force._dead_workers

    def wait(self, me: int) -> bool:
        return self._arrive(None)

    def run_section(self, me: int, section: Callable[[], None]) -> None:
        self._arrive(section)

    def _hazard(self) -> ForceWorkerDied | None:
        dead = self._dead_workers()
        if dead:
            return ForceWorkerDied(
                min(dead), "barrier",
                detail="the barrier episode cannot complete")
        return None

    def _arrive(self, section: Callable[[], None] | None) -> bool:
        words, bus = self._words, self._bus
        with bus:
            self._cancel.check()
            sense = int(words[1])
            words[0] += 1
            if words[0] == self.nproc:
                # Every peer is parked on the bus: the quiescent cut.
                if section is not None:
                    section()
                words[0] = 0
                words[1] = 1 - sense
                bus.notify_all()
                return True
            self._cancel.wait_for(bus, lambda: int(words[1]) != sense,
                                  what="barrier", hazard=self._hazard)
            return False


class _WordLock:
    """A lock over one arena word, with the ``threading.Lock`` protocol.

    The word is read and written under the bus; a waiter sleeps on the
    bus and is woken by ``release``.
    """

    __slots__ = ("_word", "_bus")

    def __init__(self, word: np.ndarray, bus) -> None:
        self._word = word
        self._bus = bus

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        word = self._word
        with self._bus:
            if word[0] and not (blocking and self._bus.wait_for(
                    lambda: not word[0],
                    None if timeout < 0 else timeout)):
                return False
            word[0] = 1
            return True

    def release(self) -> None:
        with self._bus:
            self._word[0] = 0
            self._bus.notify_all()


class _ShmCounter(SharedCounter):
    """:class:`SharedCounter` over one float64 arena cell."""

    __slots__ = ("_cell",)

    def __init__(self, cell: np.ndarray) -> None:
        self._cell = cell

    @property
    def value(self) -> float:
        return self._cell[0].item()

    @value.setter
    def value(self, new: float) -> None:
        self._cell[0] = new


class _ArenaCell:
    """``[full, value]`` of a full/empty variable: an int64 flag word
    followed by a float64 value word."""

    __slots__ = ("_flag", "_value")

    def __init__(self, arena: SharedArena, offset: int) -> None:
        self._flag = arena.view(offset, 1)
        self._value = arena.view(offset + 8, 1, np.float64)

    def __getitem__(self, index: int) -> Any:
        if index == _FULL:
            return bool(self._flag[0])
        return self._value[0].item()

    def __setitem__(self, index: int, item: Any) -> None:
        (self._flag if index == _FULL else self._value)[0] = item


# askfor control block: the pool's state words, the ring's head and
# tail, then one holder word per process
_AF_HEAD, _AF_TAIL = 4, 5
_AF_CTRL = 8


class _ArenaRing:
    """An Askfor pool's queue: a float64 ring over the arena."""

    __slots__ = ("_ends", "_ring", "_name")

    def __init__(self, ends: np.ndarray, ring: np.ndarray,
                 name: str) -> None:
        self._ends = ends           # [head, tail]
        self._ring = ring
        self._name = name

    def __len__(self) -> int:
        return int(self._ends[1] - self._ends[0])

    def __iter__(self) -> Iterator[float]:
        for index in range(int(self._ends[0]), int(self._ends[1])):
            yield self._ring[index % len(self._ring)].item()

    def append(self, item: float) -> None:
        if len(self) >= len(self._ring):
            raise _ring_full(self._name)
        self._ring[int(self._ends[1]) % len(self._ring)] = item
        self._ends[1] += 1

    def popleft(self) -> float:
        item = self._ring[int(self._ends[0]) % len(self._ring)].item()
        self._ends[0] += 1
        return item


def _ring_full(name: str) -> ForceError:
    return ForceError(f"askfor '{name}': shared ring full "
                      f"({_ASKFOR_RING} outstanding items)")


class _ArenaHolders:
    """Askfor holder table: one arena word per process.  A holder is
    dead when its process is (death record or pid gone)."""

    __slots__ = ("_words", "_force")

    def __init__(self, words: np.ndarray, force: "ProcessForce") -> None:
        self._words = words
        self._force = force

    def __len__(self) -> int:
        return int(self._words.sum())

    def claim(self) -> None:
        self._words[self._force._resolve_me(None) - 1] = 1

    def release(self) -> bool:
        slot = self._force._resolve_me(None) - 1
        held = bool(self._words[slot])
        self._words[slot] = 0
        return held

    def reap(self) -> int | None:
        for me in self._force._dead_workers():
            if self._words[me - 1]:
                self._words[me - 1] = 0
                return me
        return None


# selfsched record: the loop's state words, then its policy
_SL_CHUNK, _SL_SCHED = 3, 4
_SL_WORDS = 8


class ProcessForce(Force):
    """A Force whose members are OS processes over shared memory.

    Constructed through ``Force(nproc, backend="process")``; see the
    module docstring for the contract.
    """

    #: default arena size — generous for the example corpus, still a
    #: rounding error against /dev/shm defaults
    ARENA_BYTES = 1 << 24

    def __init__(self, nproc: int, *, backend: str = "process",
                 arena_bytes: int | None = None, **kwargs: Any) -> None:
        if backend != "process":
            raise ForceError(
                "ProcessForce only implements the 'process' backend")
        self._arena_bytes = arena_bytes or self.ARENA_BYTES
        super().__init__(nproc, backend="process", **kwargs)

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        super()._reset_state()
        self._arena: SharedArena | None = None
        self._bus = None
        self._queue = None
        self._procs: list = []
        self._proc_me: int | None = None
        self._merged_events: list[TraceEvent] = []
        self._merged_injected: list = []
        self._merged_dropped = 0
        #: events recorded parent-side (e.g. the restore instant);
        #: merged with the workers' streams in _absorb
        self._parent_events: list[TraceEvent] = []
        #: final-state snapshot captured just before the arena is
        #: unlinked (the arena does not outlive run())
        self._final_state_doc: dict[str, Any] | None = None
        # In the parent, the thread-backend collectors built by
        # super()._reset_state() are placeholders: workers build their
        # own and the parent merges what they ship back.
        self._injector = None

    def _setup_shared(self, ctx) -> None:
        """Create the arena, control words and the result queue."""
        arena = SharedArena(size=self._arena_bytes)
        self._arena = arena
        self._bus = ctx.Condition(ctx.RLock())
        self._queue = ctx.Queue()
        # One trace epoch for the whole force, stamped pre-fork so
        # every worker's collector shares the parent's time origin
        # (fork inherits this attribute; each worker would otherwise
        # zero its clock at its own construction time and the merged
        # spans would start from per-process origins).
        self._trace_epoch = monotonic()
        nproc = self.nproc
        self._cancel = _ArenaCancelToken(
            arena, self._bus, construct_timeout=self.construct_timeout,
            revalidate_interval=self.revalidate_interval)
        self._barrier = _ArenaBarrier(self)
        epoch = arena.alloc_view(1)
        epoch[0] = self._epoch_word[0]
        self._epoch_word = epoch
        self._pids_v = arena.alloc_view(nproc)
        self._shipped_v = arena.alloc_view(1)
        deaths_off = arena.alloc(nproc * _SITE_BYTES)
        self._deaths_v = arena.view(deaths_off, nproc,
                                    f"S{_SITE_BYTES}")
        self._deaths_v[:] = b""
        names_off = arena.alloc(_REGISTRY_CAPACITY * _NAME_BYTES)
        self._registry_names = arena.view(names_off,
                                          _REGISTRY_CAPACITY,
                                          f"S{_NAME_BYTES}")
        self._registry_names[:] = b""
        self._registry_meta = arena.alloc_view(_REGISTRY_CAPACITY * 2)
        if self._fault_plan is not None:
            count = len(self._fault_plan.faults)
            self._fault_hits = arena.alloc_view(max(count, 1))
            self._fault_fired = arena.alloc_view(max(count, 1))

    # ------------------------------------------------------------------
    # worker liveness
    # ------------------------------------------------------------------
    def _current_me(self) -> int | None:
        if self._proc_me is not None:
            return self._proc_me
        return super()._current_me()

    def _dead_workers(self) -> list[int]:
        dead = set()
        if self._arena is None:
            return []
        for me in range(1, self.nproc + 1):
            if self._deaths_v[me - 1] != b"":
                dead.add(me)
                continue
            pid = int(self._pids_v[me - 1])
            if pid and not _pid_alive(pid):
                dead.add(me)
        return sorted(dead)

    def _death_sites(self) -> dict[int, str]:
        return {me: self._deaths_v[me - 1].decode("ascii", "replace")
                for me in range(1, self.nproc + 1)
                if self._deaths_v[me - 1] != b""}

    # ------------------------------------------------------------------
    # shared-object registry
    # ------------------------------------------------------------------
    def _locate(self, key: str, kind: int,
                creator: Callable[[], int]) -> int:
        """Find or create a named arena object; returns its offset.

        ``creator`` runs under the bus lock, so allocation order (and
        hence every process's view of the arena) is consistent no
        matter which worker touches a name first.
        """
        if self._arena is None:
            raise ForceError(
                "process-backend shared objects exist only inside "
                "run()")
        encoded = key.encode("utf-8")
        if len(encoded) >= _NAME_BYTES:
            raise ForceError(
                f"shared-object name too long ({key!r}); the process "
                f"backend allows {_NAME_BYTES - 1} bytes")
        names = self._registry_names
        meta = self._registry_meta
        with self._bus:
            for index in range(_REGISTRY_CAPACITY):
                if names[index] == encoded:
                    have = int(meta[2 * index])
                    if have != kind:
                        raise _name_clash(key, _KIND_LABEL[have],
                                          _KIND_LABEL[kind])
                    return int(meta[2 * index + 1])
                if names[index] == b"":
                    offset = creator()
                    meta[2 * index] = kind
                    meta[2 * index + 1] = offset
                    names[index] = encoded
                    return offset
        raise ForceError(
            f"shared-object registry full ({_REGISTRY_CAPACITY} "
            "names)")

    def _shared_objects(self) -> list[tuple[str, Any]]:
        """Proxies over every named construct in the arena registry.

        Empty once the arena is gone: the parent settles the askfor
        gauges in :meth:`_absorb`, while it still exists.  Criticals
        and loops hold no state at a quiescent cut and are skipped.
        """
        if self._arena is None:
            return []
        objects = []
        for index in range(_REGISTRY_CAPACITY):
            raw = self._registry_names[index]
            if raw == b"":
                break
            kind = int(self._registry_meta[2 * index])
            offset = int(self._registry_meta[2 * index + 1])
            name = raw.decode("utf-8")[2:]      # strip the "s:" prefix
            if kind == _K_COUNTER:
                obj = _ShmCounter(self._arena.view(offset, 1, np.float64))
            elif kind == _K_ARRAY:
                obj = self._array_view(offset)
            elif kind == _K_ASYNC:
                obj = self._new_async_var(name)
            elif kind == _K_ASYNC_ARRAY:
                obj = self._new_async_array(
                    name, int(self._arena.view(offset, 1)[0]))
            elif kind == _K_ASKFOR:
                obj = self._new_askfor(name, None)
            else:
                continue
            objects.append((name, obj))
        return objects

    # ------------------------------------------------------------------
    # checkpoint / restore (over the arena)
    # ------------------------------------------------------------------
    def _apply_restore(self) -> None:
        """Deferred: the arena does not exist at ``_reset_state`` time.

        :meth:`run` applies the restore right after ``_setup_shared``
        (pre-fork, so every worker inherits the restored arena).
        """

    def _apply_restore_arena(self) -> None:
        self._materialize_shared(self._restore_doc)
        if self._trace_enabled:
            self._parent_events.append(TraceEvent(
                ts=0.0, proc="main", kind="recover",
                name="checkpoint", op="restore",
                args={"epoch": self.barrier_epoch,
                      "snapshot_nproc": int(self._restore_doc["nproc"]),
                      "nproc": self.nproc}))

    def capture_state(self) -> dict[str, Any]:
        """Snapshot the arena (live) or the final-state doc (post-run).

        The arena does not outlive :meth:`run`, so after a completed
        run this returns the snapshot captured just before unlink —
        available whenever a checkpoint policy was armed.
        """
        if self._arena is None:
            if self._final_state_doc is not None:
                return self._final_state_doc
            raise CheckpointError(
                "no state to capture: the process backend's arena "
                "exists only inside run() (arm a checkpoint policy "
                "to keep the final state)")
        return super().capture_state()

    def _capture_shared(self) -> list[dict[str, Any]]:
        """Serialize every registered arena construct.

        Callers hold the bus or run at quiescence (barrier episode,
        post-join parent): registry and payloads are stable.
        """
        if self._arena is None:
            raise CheckpointError(
                "process-backend shared state exists only inside "
                "run()")
        return super()._capture_shared()

    # ------------------------------------------------------------------
    # construct storage: arena words behind the shared protocols
    # ------------------------------------------------------------------
    def _new_lock(self, name: str) -> _WordLock:
        offset = self._locate(f"k:{name}", _K_CRITICAL,
                              lambda: self._arena.alloc(8))
        return _WordLock(self._arena.view(offset, 1), self._bus)

    def _new_loop(self, label: str, chunk: int,
                  schedule: str) -> _SelfschedLoop:
        def create() -> int:
            offset = self._arena.alloc(_SL_WORDS * 8)
            record = self._arena.view(offset, _SL_WORDS)
            record[:] = 0
            record[_SL_CHUNK] = chunk
            record[_SL_SCHED] = SCHEDULES.index(schedule)
            return offset

        offset = self._locate(f"l:{label}", _K_LOOP, create)
        record = self._arena.view(offset, _SL_WORDS)
        # The record's creator fixed the policy; a conflicting request
        # is then reported by selfsched_range.
        return super()._new_loop(
            label, int(record[_SL_CHUNK]),
            SCHEDULES[int(record[_SL_SCHED])],
            _state=record[:_SL_CHUNK], _condition=self._bus)

    def _askfor_ring(self, name: str, ctrl_off: int) -> _ArenaRing:
        ends = self._arena.view(ctrl_off, _AF_CTRL)[_AF_HEAD:_AF_TAIL + 1]
        # The ring was allocated immediately after the control block.
        ring_off = ctrl_off + (_AF_CTRL + self.nproc) * 8
        return _ArenaRing(ends, self._arena.view(ring_off, _ASKFOR_RING,
                                                 np.float64), name)

    def _new_askfor(self, name: str,
                    initial: list | None) -> AskforMonitor:
        def create() -> int:
            items = list(initial or [])
            if len(items) > _ASKFOR_RING:
                raise _ring_full(name)
            ctrl_off = self._arena.alloc((_AF_CTRL + self.nproc) * 8)
            self._arena.view(ctrl_off, _AF_CTRL + self.nproc)[:] = 0
            self._arena.alloc(_ASKFOR_RING * 8)
            ring = self._askfor_ring(name, ctrl_off)
            for item in items:
                ring.append(item)
            ctrl = self._arena.view(ctrl_off, _AF_CTRL)
            ctrl[_PUT] = ctrl[_DEPTH] = len(items)
            return ctrl_off

        ctrl_off = self._locate(f"s:{name}", _K_ASKFOR, create)
        ctrl = self._arena.view(ctrl_off, _AF_CTRL + self.nproc)
        return super()._new_askfor(name, None, _storage=(
            self._bus, self._askfor_ring(name, ctrl_off), ctrl[:_AF_HEAD],
            _ArenaHolders(ctrl[_AF_CTRL:], self)))

    def resolve(self, name: str, weights: dict[str, float]):
        raise ForceError(
            "resolve is not supported by the process backend")

    def _new_counter(self, name: str, initial: Any) -> _ShmCounter:
        def create() -> int:
            offset = self._arena.alloc(8)
            self._arena.view(offset, 1, np.float64)[0] = initial
            return offset

        offset = self._locate(f"s:{name}", _K_COUNTER, create)
        return _ShmCounter(self._arena.view(offset, 1, np.float64))

    def _new_array(self, name: str, shape, dtype) -> np.ndarray:
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        resolved = np.dtype(dtype)
        code = _DTYPE_CODES.get(resolved)
        if code is None:
            raise ForceError(
                f"process-backend shared arrays must be numeric "
                f"(got dtype {resolved})")
        if len(shape) > 4:
            raise ForceError("shared arrays support up to 4 dims")
        count = int(np.prod(shape)) if shape else 1

        def create() -> int:
            header_off = self._arena.alloc(6 * 8)
            header = self._arena.view(header_off, 6)
            header[0] = code
            header[1] = len(shape)
            for axis, extent in enumerate(shape):
                header[2 + axis] = extent
            data_off = self._arena.alloc(
                count * resolved.itemsize, align=8)
            data = self._arena.view(data_off, count, resolved)
            data[:] = 0
            return header_off

        return self._array_view(
            self._locate(f"s:{name}", _K_ARRAY, create))

    def _array_view(self, header_off: int) -> np.ndarray:
        """The shaped array whose header sits at ``header_off``."""
        header = self._arena.view(header_off, 6)
        dtype = np.dtype(_DTYPES[int(header[0])])
        shape = tuple(int(header[2 + axis])
                      for axis in range(int(header[1])))
        count = int(np.prod(shape)) if shape else 1
        return self._arena.view(header_off + 6 * 8, count,
                                dtype).reshape(shape)

    def _new_async_var(self, name: str) -> AsyncVariable:
        def create() -> int:
            offset = self._arena.alloc(16)
            self._arena.view(offset, 2)[:] = 0
            return offset

        offset = self._locate(f"s:{name}", _K_ASYNC, create)
        return super()._new_async_var(
            name, _cell=_ArenaCell(self._arena, offset),
            _condition=self._bus)

    def _new_async_array(self, name: str, size: int) -> AsyncArray:
        def create() -> int:
            # Word 0 records the cell count so a checkpoint capture
            # can walk the cells from the registry offset alone.
            offset = self._arena.alloc(8 + 16 * size)
            self._arena.view(offset, 1)[0] = size
            self._arena.view(offset + 8, 2 * size)[:] = 0
            return offset

        offset = self._locate(f"s:{name}", _K_ASYNC_ARRAY, create)
        stored = int(self._arena.view(offset, 1)[0])
        return super()._new_async_array(
            name, stored,
            _cells=[_ArenaCell(self._arena, offset + 8 + 16 * index)
                    for index in range(stored)],
            _condition=self._bus)

    # ------------------------------------------------------------------
    # running a program
    # ------------------------------------------------------------------
    def run(self, program: Callable[..., Any], *args: Any) -> None:
        try:
            pickle.dumps((program, args))
        except Exception as exc:
            raise ForceError(
                "the process backend requires a picklable program "
                f"and arguments: {exc}") from exc
        self._reset_state()
        ctx = multiprocessing.get_context("fork")
        # Reclaim arenas orphaned by a killed parent before allocating
        # a fresh one; the owner-pid guard keeps live forces safe.
        sweep_stale_arenas()
        self._setup_shared(ctx)
        procs: list = []
        payloads: list = []
        try:
            # Inside the try: a snapshot that cannot be restored must
            # still unlink the arena.
            if self._restore_doc is not None:
                self._apply_restore_arena()
            procs = [ctx.Process(target=self._worker,
                                 args=(me, program, args),
                                 name=f"force-{me}", daemon=True)
                     for me in range(1, self.nproc + 1)]
            self._procs = procs
            for proc in procs:
                proc.start()
            deadline = None if self.timeout is None \
                else monotonic() + self.timeout
            while True:
                self._drain(payloads)
                if all(not proc.is_alive() for proc in procs):
                    break
                if deadline is not None and monotonic() > deadline:
                    break
                sleep(0.005)
            # Post-join grace: the queue feeder flushes before a
            # worker bumps its shipped counter, so wait (briefly)
            # until every shipped payload arrived.
            grace = monotonic() + 2.0
            while len(payloads) < int(self._shipped_v[0]) and \
                    monotonic() < grace:
                self._drain(payloads)
                sleep(0.005)
            self._drain(payloads)
            self._absorb(payloads)
            failure = self._cancel.error
            alive = [proc.name for proc in procs if proc.is_alive()]
            deaths = self._death_sites()
            if failure is not None:
                raise failure
            if alive:
                error = ForceDeadlockError(
                    f"force did not terminate within {self.timeout}s "
                    "(deadlock or missing barrier partner?); still "
                    "alive: " + ", ".join(alive),
                    construct=", ".join(alive), timeout=self.timeout)
                self._cancel.cancel(error)
                raise error
            if deaths:
                me_dead = min(deaths)
                raise ForceWorkerDied(
                    me_dead, deaths[me_dead],
                    detail="the run completed but the dead process's "
                           "work is missing")
            for me, proc in enumerate(procs, start=1):
                if proc.exitcode not in (0, None):
                    raise ForceWorkerDied(
                        me, "worker process",
                        detail=f"exit status {proc.exitcode}")
            # Run completed clean: keep the final state past the
            # arena's lifetime (the differential oracle compares it).
            if self._checkpoint is not None:
                self._final_state_doc = self.capture_state()
        finally:
            if self._arena is not None:
                self._epoch_word = [int(self._epoch_word[0])]
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join(timeout=1.0)
            if self._queue is not None:
                self._queue.close()
                self._queue = None
            if self._arena is not None:
                # No proxy (restore-time ones included) outlives the
                # arena it reads.
                self._reset_registry()
                self._arena.close()
                self._arena.unlink()
                self._arena = None

    def _drain(self, payloads: list) -> None:
        while True:
            try:
                payloads.append(self._queue.get_nowait())
            except queue_module.Empty:
                return
            except (EOFError, OSError):    # pragma: no cover
                return

    def _absorb(self, payloads: list) -> None:
        """Merge worker metrics/trace/injection payloads in the parent."""
        if self._metrics is not None:
            facade = ForceMetrics()
            for payload in payloads:
                if payload[1] is not None:
                    facade.registry.merge(payload[1])
            self._metrics = facade
            # Askfor gauges live in the arena (every worker sees the
            # same totals); settle them once, parent-side.
            self._settled_registry()
        self._merged_dropped = sum(payload[4] for payload in payloads)
        events: list[TraceEvent] = list(self._parent_events)
        injected: list = []
        for payload in sorted(payloads, key=lambda p: p[0]):
            event_dicts, records = payload[2], payload[3]
            if event_dicts:
                events.extend(TraceEvent.from_dict(data)
                              for data in event_dicts)
            if records:
                injected.extend(records)
        self._merged_events = sorted(events, key=lambda e: e.ts)
        self._merged_injected = injected

    def _worker(self, me: int, program: Callable[..., Any],
                args: tuple) -> None:
        self._proc_me = me
        # The injector and askfor resolve process ids from the thread
        # name, exactly as in the thread backend.
        threading.current_thread().name = f"force-{me}"
        self._pids_v[me - 1] = os.getpid()
        # Proxies built parent-side (restore) carry the parent's
        # collectors: rebuild them over the same arena words.
        self._reset_registry()
        self._tracer = TraceCollector(self._trace_capacity,
                                      epoch=self._trace_epoch) \
            if self._trace_enabled else None
        self._metrics = self._fresh_metrics()
        self._injector = None
        if self._fault_plan is not None:
            self._injector = _SharedHitInjector(
                self._fault_plan, tracer=self._tracer,
                hits=self._fault_hits, fired=self._fault_fired,
                bus=self._bus)
        tracer = self._tracer
        if tracer is not None:
            tracer.register_lane(f"force-{me}")
            tracer.record("sched", f"force-{me}", "start")
        died = False
        try:
            program(self, me, *args)
        except ForceCancelled:
            pass   # a peer failed first; unwind quietly
        except InjectedDeath as death:
            site = death.spec.site.encode("ascii", "replace")
            self._deaths_v[me - 1] = site[:_SITE_BYTES - 1] or b"?"
            if tracer is not None:
                tracer.record("fault", death.spec.site, "death",
                              proc=me)
            died = True
        except (ForceDeadlockError, ForceWorkerDied) as exc:
            self._cancel.cancel(exc)
        except BaseException as exc:   # noqa: BLE001 - reported above
            self._cancel.cancel(ForceProgramError(me, exc))
        finally:
            if tracer is not None:
                tracer.record("sched", f"force-{me}", "end")
                tracer.release_lane()
        self._ship(me)
        if died:
            os._exit(0)

    def _ship(self, me: int) -> None:
        """Send this worker's observability payload to the parent."""
        registry = self._metrics.registry \
            if self._metrics is not None else None
        event_dicts = [event.as_dict()
                       for event in self._tracer.events()] \
            if self._tracer is not None else None
        dropped = self._tracer.dropped \
            if self._tracer is not None else 0
        records = list(self._injector.injected) \
            if self._injector is not None else []
        try:
            self._queue.put((me, registry, event_dicts, records,
                             dropped))
            self._queue.close()
            self._queue.join_thread()
        except Exception:       # pragma: no cover - queue torn down
            return
        with self._bus:
            self._shipped_v[0] += 1

    # ------------------------------------------------------------------
    # observability (parent side)
    # ------------------------------------------------------------------
    def trace_events(self) -> list[TraceEvent]:
        if not self._trace_enabled:
            raise ForceError(
                "trace collection is off; create Force(..., "
                "trace=True)")
        return list(self._merged_events)

    @property
    def trace_dropped(self) -> int:
        return self._merged_dropped

    def injected_faults(self):
        return list(self._merged_injected)
