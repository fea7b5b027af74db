"""Keeping track of every process the benchmark starts.

The benchmark makes itself a child subreaper (Linux), so a process
orphaned by one of its children -- the ``multiprocessing`` resource
tracker that a ``force run --backend process`` subprocess leaves behind,
for instance -- becomes the benchmark's child instead of init's.
:func:`reap_strays` then waits for such children between operations, and
:func:`stop_all` ends and waits for every remaining child on the way out,
including the resource tracker the process backend starts in this
process.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import signal
import sys
from time import monotonic, sleep

PR_SET_CHILD_SUBREAPER = 36
#: how long a stray child may take to exit before it is killed, seconds
GRACE_S = 5.0


def become_subreaper() -> bool:
    """Adopt the orphans of this process's descendants (Linux only)."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def child_pids() -> list[int]:
    """Pids of this process's live and zombie children, from /proc."""
    me = os.getpid()
    out = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return out
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and fields[1] == str(me):
            out.append(int(entry))
    return out


def _tracker_pid() -> int | None:
    """The pid of this process's ``multiprocessing`` resource tracker."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    return getattr(tracker, "_pid", None)


def _reaped(pid: int) -> bool:
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:       # already reaped, or not ours
        return True
    return done == pid


def reap_strays() -> None:
    """Wait for every child except the resource tracker to exit; kill
    any still running after :data:`GRACE_S`."""
    keep = _tracker_pid()
    pending = [pid for pid in child_pids() if pid != keep]
    deadline = monotonic() + GRACE_S
    while pending and monotonic() < deadline:
        pending = [pid for pid in pending if not _reaped(pid)]
        if pending:
            sleep(0.002)
    for pid in pending:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def stop_resource_tracker() -> None:
    """Stop this process's resource tracker, if it started one, and
    wait for it to exit.  ``_stop`` is private but present in every
    Python since 3.8; without it the tracker only ends after this
    process has exited, unwaited-for."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass


def stop_all() -> None:
    """End and wait for every process this one started."""
    stop_resource_tracker()
    reap_strays()
