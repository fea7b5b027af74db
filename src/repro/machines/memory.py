"""Shared-memory layout emulation (§4.1.2).

On the Encore, sharing happens at run time through shared pages, and
"it is in general the programmer's responsibility to ensure that shared
variables are within the shared page boundaries and that private
variables are not.  The Force relieves the programmer from this
responsibility by calculating the address of shared pages and padding
the extra space at the beginning and the end of the shared area".  The
Alliant is similar except "all sharing must start at the beginning of a
page".

This module reproduces that address arithmetic: given the shared and
private variables of a program, it lays out a data segment, inserts the
machine-required padding, and exposes invariant checks that the tests
(and experiment E1) assert for every machine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro._util.errors import MachineError
from repro.machines.model import MachineModel, SharingBinding

#: Bytes per element for layout purposes (period 32-bit machines used
#: 4-byte numeric storage units; DOUBLE PRECISION takes two).
TYPE_SIZES = {
    "INTEGER": 4,
    "REAL": 4,
    "LOGICAL": 4,
    "DOUBLE PRECISION": 8,
    "CHARACTER": 1,
}


@dataclass(frozen=True)
class VariableSpec:
    """A variable to place: name, Fortran type keyword, element count."""

    name: str
    ftype: str = "INTEGER"
    elements: int = 1

    @property
    def size(self) -> int:
        try:
            return TYPE_SIZES[self.ftype] * self.elements
        except KeyError as exc:
            raise MachineError(f"no size for type {self.ftype!r}") from exc


@dataclass
class Placement:
    """A variable's resolved address range [start, end)."""

    spec: VariableSpec
    start: int

    @property
    def end(self) -> int:
        return self.start + self.spec.size


@dataclass
class SharedRegionPlan:
    """The computed layout: shared region bounds plus all placements."""

    machine: MachineModel
    shared_start: int
    shared_end: int               # exclusive; padded per machine rules
    shared: list[Placement] = field(default_factory=list)
    private: list[Placement] = field(default_factory=list)
    padding_bytes: int = 0

    def placement(self, name: str) -> Placement:
        for p in self.shared + self.private:
            if p.spec.name == name:
                return p
        raise MachineError(f"no variable named {name} in layout")

    # -- invariants asserted by tests and E1 ---------------------------
    def check(self) -> None:
        """Raise MachineError if any §4.1.2 constraint is violated."""
        machine = self.machine
        page = machine.page_size
        for p in self.shared:
            if not (self.shared_start <= p.start and
                    p.end <= self.shared_end):
                raise MachineError(
                    f"shared variable {p.spec.name} at [{p.start},{p.end}) "
                    f"outside shared region [{self.shared_start},"
                    f"{self.shared_end})")
        for p in self.private:
            if p.start < self.shared_end and p.end > self.shared_start:
                raise MachineError(
                    f"private variable {p.spec.name} overlaps the shared "
                    "region")
        if page and (machine.shared_starts_on_page or
                     machine.shared_padded_both_ends):
            if self.shared_start % page != 0:
                raise MachineError(
                    f"shared region starts at {self.shared_start}, not on "
                    f"a {page}-byte page boundary")
        if page and machine.shared_padded_both_ends:
            if self.shared_end % page != 0:
                raise MachineError(
                    f"shared region ends at {self.shared_end}, not on a "
                    f"page boundary")


class MemoryLayout:
    """Builds a :class:`SharedRegionPlan` for one machine.

    The data segment is laid out as: private variables, then the shared
    region (aligned/padded per machine), then remaining private
    variables would follow — we place all privates first, which yields
    the worst-case padding the paper's implementation must absorb.
    """

    def __init__(self, machine: MachineModel) -> None:
        self.machine = machine

    def plan(self, shared: list[VariableSpec],
             private: list[VariableSpec],
             *, base_address: int = 0) -> SharedRegionPlan:
        machine = self.machine
        page = machine.page_size
        cursor = base_address
        private_placements: list[Placement] = []
        for spec in private:
            cursor = _align(cursor, TYPE_SIZES.get(spec.ftype, 4))
            private_placements.append(Placement(spec, cursor))
            cursor += spec.size

        pad_before = 0
        if page and (machine.shared_starts_on_page or
                     machine.shared_padded_both_ends):
            aligned = _align(cursor, page)
            pad_before = aligned - cursor
            cursor = aligned
        shared_start = cursor

        shared_placements: list[Placement] = []
        for spec in shared:
            cursor = _align(cursor, TYPE_SIZES.get(spec.ftype, 4))
            shared_placements.append(Placement(spec, cursor))
            cursor += spec.size

        pad_after = 0
        if page and machine.shared_padded_both_ends:
            aligned = _align(cursor, page)
            pad_after = aligned - cursor
            cursor = aligned
        elif page and machine.shared_starts_on_page:
            aligned = _align(cursor, page)
            pad_after = aligned - cursor
            cursor = aligned
        shared_end = cursor

        if machine.sharing_binding is SharingBinding.COMPILE_TIME and page:
            raise MachineError(  # pragma: no cover - config sanity
                f"{machine.name}: compile-time sharing should not have "
                "page constraints")

        plan = SharedRegionPlan(
            machine=machine,
            shared_start=shared_start,
            shared_end=shared_end,
            shared=shared_placements,
            private=private_placements,
            padding_bytes=pad_before + pad_after,
        )
        return plan


def _align(value: int, alignment: int) -> int:
    if alignment <= 1:
        return value
    remainder = value % alignment
    return value if remainder == 0 else value + alignment - remainder


# ----------------------------------------------------------------------
# real shared memory: the process backend's arena
# ----------------------------------------------------------------------

#: reserved header: slot 0 is the bump-allocator cursor (bytes), slot
#: 1 records the creating process's pid (the in-segment "pidfile" the
#: stale sweep is guarded by), the rest is free for backend-specific
#: control state.
ARENA_HEADER_SLOTS = 64
ARENA_HEADER_BYTES = ARENA_HEADER_SLOTS * 8
ARENA_OWNER_SLOT = 1

#: every arena segment the process backend creates is named
#: ``force-arena-<hex>`` — the namespace :func:`sweep_stale_arenas`
#: confines itself to
ARENA_PREFIX = "force-arena-"


class SharedArena:
    """One POSIX shared-memory segment with a bump allocator.

    This is the run-time analogue of :class:`SharedRegionPlan`: where
    the simulator *models* the shared-page address arithmetic, the
    process backend actually places its COMMON blocks, lock words and
    construct state in a ``multiprocessing.shared_memory`` segment and
    hands out numpy views.

    Lifecycle contract (leak-proofing is the whole point):

    * the parent creates the arena (``SharedArena(size=...)``) and is
      the only process that may :meth:`unlink` it;
    * workers either inherit the mapping over ``fork`` or
      :meth:`attach` by name, and must :meth:`close` on exit;
    * ``attach`` un-registers the segment from this process's
      ``resource_tracker`` so a dying worker can never unlink the
      parent's segment out from under its siblings (Python 3.12's
      tracker would otherwise do exactly that);
    * the parent's ``close``/``unlink`` pair runs in a ``finally`` in
      the backend, covering normal exit, injected deaths and
      cancellation alike.

    The allocator cursor itself lives *inside* the segment (header
    slot 0), so post-fork allocations made by any process stay
    consistent — callers serialise :meth:`alloc` under their own
    cross-process mutex.
    """

    def __init__(self, size: int | None = None, *,
                 name: str | None = None) -> None:
        # imported here: every simulated run imports this module for
        # the layout emulation, and only the process backend maps arenas
        from multiprocessing import resource_tracker, shared_memory
        if size is not None:
            if size <= ARENA_HEADER_BYTES:
                raise MachineError(
                    f"arena of {size} bytes cannot hold the "
                    f"{ARENA_HEADER_BYTES}-byte header")
            import secrets
            unique = name or f"{ARENA_PREFIX}{secrets.token_hex(6)}"
            self._shm = shared_memory.SharedMemory(
                name=unique, create=True, size=size)
            self._owner = True
            header = self._header()
            header[:] = 0
            header[0] = ARENA_HEADER_BYTES
            # The in-segment pidfile: sweep_stale_arenas only unlinks
            # segments whose recorded creator is no longer alive.
            header[ARENA_OWNER_SLOT] = os.getpid()
        elif name is not None:
            self._shm = shared_memory.SharedMemory(name=name)
            # Attaching registered the segment with this process's
            # resource tracker (no track= parameter before 3.13);
            # undo that so only the creating process ever unlinks.
            try:
                resource_tracker.unregister(
                    self._shm._name, "shared_memory")
            except Exception:       # pragma: no cover - tracker quirk
                pass
            self._owner = False
        else:
            raise MachineError("SharedArena needs size= (create) or "
                               "name= (attach)")
        self._closed = False

    # -- identity ------------------------------------------------------
    @property
    def name(self) -> str:
        """The segment name (``/dev/shm/<name>`` on Linux)."""
        return self._shm.name

    @property
    def size(self) -> int:
        return self._shm.size

    def _header(self) -> np.ndarray:
        return np.ndarray((ARENA_HEADER_SLOTS,), dtype=np.int64,
                          buffer=self._shm.buf)

    # -- allocation ----------------------------------------------------
    def alloc(self, nbytes: int, *, align: int = 8) -> int:
        """Reserve ``nbytes`` and return the offset (caller locks)."""
        header = self._header()
        offset = _align(int(header[0]), align)
        end = offset + nbytes
        if end > self.size:
            raise MachineError(
                f"shared arena exhausted: need {nbytes} bytes at "
                f"{offset}, segment is {self.size}")
        header[0] = end
        return offset

    def view(self, offset: int, count: int, dtype=np.int64) -> np.ndarray:
        """A numpy view of ``count`` items of ``dtype`` at ``offset``."""
        itemsize = np.dtype(dtype).itemsize
        if offset < 0 or offset + count * itemsize > self.size:
            raise MachineError(
                f"arena view [{offset}, {offset + count * itemsize}) "
                f"outside segment of {self.size} bytes")
        return np.ndarray((count,), dtype=dtype, buffer=self._shm.buf,
                          offset=offset)

    def alloc_view(self, count: int, dtype=np.int64,
                   *, align: int = 8) -> np.ndarray:
        """Allocate and return a zero-filled view in one step."""
        itemsize = np.dtype(dtype).itemsize
        offset = self.alloc(count * itemsize,
                            align=max(align, itemsize))
        view = self.view(offset, count, dtype)
        view[:] = 0
        return view

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:      # pragma: no cover - lingering views
            pass

    def unlink(self) -> None:
        """Remove the segment from the system (creator only)."""
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()


def _pid_alive(pid: int) -> bool:
    """Is there a live process with this pid (that we may signal)?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:      # pragma: no cover - exists, not ours
        return True
    return True


def sweep_stale_arenas(*, shm_dir: str = "/dev/shm",
                       prefix: str = ARENA_PREFIX) -> list[str]:
    """Unlink orphaned force arenas; returns the segment names removed.

    The parent's ``close``/``unlink`` pair runs in a ``finally``, so
    leaks need the parent itself to die un-catchably (``SIGKILL``, OOM
    kill, power loss) — exactly the failures the PR 9 supervisor
    restarts after.  This sweep makes those restarts clean: it walks
    the ``force-arena-*`` namespace and unlinks every segment whose
    in-header owner pid (the "pidfile" written at creation) no longer
    names a live process.

    Guard rails:

    * only segments under ``prefix`` are even considered;
    * a segment whose owner slot is zero (not yet initialised, or
      created by an older layout) is left alone;
    * a live owner pid — including a recycled one, the usual pidfile
      caveat — means the segment is left alone, so a sweeping process
      can never pull a mapped arena out from under a running force.

    Safe to call at any time; the process backend runs it before
    creating each new arena.
    """
    from multiprocessing import resource_tracker, shared_memory
    removed: list[str] = []
    try:
        names = sorted(os.listdir(shm_dir))
    except OSError:
        return removed          # no POSIX shm directory on this host
    for segment in names:
        if not segment.startswith(prefix):
            continue
        try:
            shm = shared_memory.SharedMemory(name=segment)
        except (FileNotFoundError, OSError):
            continue            # raced with its owner's cleanup
        try:
            # Attaching registered the segment with our resource
            # tracker (same quirk as SharedArena.attach); undo it so a
            # *kept* segment is not unlinked at our own exit.
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:    # pragma: no cover - tracker quirk
                pass
            header = np.ndarray((ARENA_HEADER_SLOTS,), dtype=np.int64,
                                buffer=shm.buf)
            owner = int(header[ARENA_OWNER_SLOT])
            del header          # release the buffer so close() works
            if owner > 0 and not _pid_alive(owner):
                try:
                    shm.unlink()
                except FileNotFoundError:   # pragma: no cover - race
                    continue
                removed.append(segment)
        finally:
            shm.close()
    return removed
