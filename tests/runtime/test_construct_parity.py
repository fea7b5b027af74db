"""Construct parity: every construct behaves the same on both backends.

Each construct protocol (selfscheduled dispatch, full/empty variables,
Askfor termination, the revalidating wait behind ``construct_timeout``)
must give the same observable result on the thread and the process
backend: the same index sets, values, error texts and deadlock
verdicts.  Programs are module-level functions (the process backend
pickles them) and report through files under a scratch directory, which
works identically on both vehicles.
"""

import os
import time

import pytest

from repro._util.errors import ForceDeadlockError, ForceError
from repro.runtime import Force, ForceProgramError

BACKENDS = ("thread", "process")
JOIN_TIMEOUT = 30.0


def _run(backend, program, *args, nproc=2, **kwargs):
    kwargs.setdefault("timeout", JOIN_TIMEOUT)
    kwargs.setdefault("construct_timeout", 15.0)
    force = Force(nproc, backend=backend, **kwargs)
    force.run(program, *args)
    return force


def _both(program, tmp_path, *args, **kwargs):
    """Run ``program(force, me, outdir, *args)`` on both backends and
    return each backend's report files as {backend: {name: text}}."""
    reports = {}
    for backend in BACKENDS:
        outdir = tmp_path / backend
        outdir.mkdir()
        _run(backend, program, str(outdir), *args, **kwargs)
        reports[backend] = {name: (outdir / name).read_text()
                            for name in sorted(os.listdir(outdir))}
    return reports


def _error_text(backend, program, *args, **kwargs):
    with pytest.raises(ForceProgramError) as info:
        _run(backend, program, *args, **kwargs)
    assert isinstance(info.value.original, ForceError)
    return str(info.value.original)


def _write(outdir, name, text):
    with open(os.path.join(outdir, name), "w") as sink:
        sink.write(text)


# ----------------------------------------------------------------------
# selfscheduled DOALL
# ----------------------------------------------------------------------

def selfsched_indices_program(force, me, outdir, first, last, step,
                              kwargs):
    mine = list(force.selfsched_range("L", first, last, step, **kwargs))
    _write(outdir, f"proc{me}", " ".join(map(str, mine)))


def _indices(report):
    out = []
    for text in report.values():
        out.extend(int(word) for word in text.split())
    return sorted(out)


SCHEDULES = [
    {},
    {"chunk": 4},
    {"chunk": 7, "schedule": "chunked"},
    {"schedule": "guided"},
]
SCHEDULE_IDS = ["self", "chunk4", "chunk7", "guided"]


class TestSelfsched:
    @pytest.mark.parametrize("nproc", [1, 2, 4])
    @pytest.mark.parametrize("kwargs", SCHEDULES, ids=SCHEDULE_IDS)
    def test_every_index_exactly_once(self, nproc, kwargs, tmp_path):
        reports = _both(selfsched_indices_program, tmp_path, 1, 60, 1,
                        kwargs, nproc=nproc)
        for backend in BACKENDS:
            assert _indices(reports[backend]) == list(range(1, 61)), \
                backend

    @pytest.mark.parametrize("kwargs", SCHEDULES, ids=SCHEDULE_IDS)
    def test_negative_step(self, kwargs, tmp_path):
        reports = _both(selfsched_indices_program, tmp_path, 50, 1, -3,
                        kwargs, nproc=2)
        for backend in BACKENDS:
            assert _indices(reports[backend]) == \
                sorted(range(50, 0, -3)), backend

    @pytest.mark.parametrize("kwargs", SCHEDULES, ids=SCHEDULE_IDS)
    def test_empty_range(self, kwargs, tmp_path):
        reports = _both(selfsched_indices_program, tmp_path, 5, 4, 1,
                        kwargs, nproc=2)
        for backend in BACKENDS:
            assert _indices(reports[backend]) == [], backend

    def test_conflicting_policy_error(self):
        texts = {backend: _error_text(backend, conflicting_policy_program)
                 for backend in BACKENDS}
        assert texts["thread"] == texts["process"]
        assert "conflicting policy" in texts["thread"]

    def test_unknown_schedule_error(self):
        texts = {backend: _error_text(backend, unknown_schedule_program)
                 for backend in BACKENDS}
        assert texts["thread"] == texts["process"] == (
            "unknown selfsched schedule 'dynamic': expected 'self', "
            "'chunked' or 'guided'")


def conflicting_policy_program(force, me):
    kwargs = {"chunk": 16} if me == 1 else {}
    if me == 2:
        time.sleep(0.1)     # process 1 creates the loop first
    for _i in force.selfsched_range("L", 1, 100, **kwargs):
        pass


def unknown_schedule_program(force, me):
    for _i in force.selfsched_range("L", 1, 10, schedule="dynamic"):
        pass


# ----------------------------------------------------------------------
# full/empty variables
# ----------------------------------------------------------------------

def _outcome(call):
    try:
        return repr(call())
    except ForceError as error:
        return f"error: {error}"


def asyncvar_program(force, me, outdir):
    if me != 1:
        return
    var = force.async_var("v")
    lines = [
        f"isfull {var.isfull}",
        "consume " + _outcome(lambda: var.consume(timeout=0.05)),
        "copy " + _outcome(lambda: var.copy(timeout=0.05)),
        "produce " + _outcome(lambda: var.produce(1.5)),
        f"isfull {var.isfull}",
        "produce " + _outcome(lambda: var.produce(2.5, timeout=0.05)),
        "copy " + _outcome(var.copy),
        f"isfull {var.isfull}",
        "consume " + _outcome(var.consume),
        f"isfull {var.isfull}",
        "produce " + _outcome(lambda: var.produce(3.5)),
        "void " + _outcome(var.void),
        f"isfull {var.isfull}",
    ]
    cells = force.async_array("cells", 3)
    cells.produce(1, 4.5)
    lines.append("cells " + " ".join(str(cells[i].isfull)
                                     for i in range(len(cells))))
    lines.append("cell1 " + _outcome(lambda: cells.copy(1)))
    lines.append("cell0 " + _outcome(lambda: cells.consume(0,
                                                           timeout=0.05)))
    cells.void_all()
    lines.append("cells " + " ".join(str(cells[i].isfull)
                                     for i in range(len(cells))))
    _write(outdir, "out", "\n".join(lines) + "\n")


def asyncvar_handoff_program(force, me, outdir):
    chan = force.async_var("chan")
    if me == 1:
        for value in (1.0, 2.0, 3.0):
            chan.produce(value)
    else:
        got = [chan.consume() for _ in range(3)]
        _write(outdir, "out", repr(got))


class TestAsyncVariable:
    def test_produce_consume_copy_void(self, tmp_path):
        reports = _both(asyncvar_program, tmp_path)
        assert reports["thread"] == reports["process"]
        text = reports["thread"]["out"]
        assert "consume error: consume timed out (variable stayed " \
            "empty)" in text
        assert "copy error: copy timed out (variable stayed empty)" \
            in text
        assert "produce error: produce timed out (variable stayed " \
            "full)" in text
        assert "cell1 4.5" in text

    def test_blocking_handoff(self, tmp_path):
        reports = _both(asyncvar_handoff_program, tmp_path)
        assert reports["thread"] == reports["process"] == \
            {"out": "[1.0, 2.0, 3.0]"}


# ----------------------------------------------------------------------
# Askfor
# ----------------------------------------------------------------------

def askfor_drain_program(force, me, outdir):
    pool = force.askfor("work", initial=[float(v) for v in range(1, 9)])
    count = force.shared_counter("count")
    for item in pool:
        if item < 4:
            pool.put(item + 10.0)
        with force.critical("count"):
            count.value += 1
    force.barrier()
    if me == 1:
        try:
            pool.put(99.0)
            late = "accepted"
        except ForceError as error:
            late = f"error: {error}"
        _write(outdir, "out",
               f"put={pool.total_put} got={pool.total_got} "
               f"count={int(count.value)}\nlate {late}\n")


class TestAskfor:
    def test_drain_and_put_after_termination(self, tmp_path):
        reports = _both(askfor_drain_program, tmp_path, nproc=3)
        assert reports["thread"] == reports["process"] == {
            "out": "put=11 got=11 count=11\n"
                   "late error: putwork after the pool terminated\n"}


# ----------------------------------------------------------------------
# construct deadlines
# ----------------------------------------------------------------------

def consume_deadlock_program(force, me):
    if me == 1:
        force.async_var("never").consume()
    else:
        time.sleep(1.5)


def selfsched_deadlock_program(force, me):
    if me == 1:
        for _i in force.selfsched_range("stuck", 1, 4):
            pass
    else:
        time.sleep(1.5)     # never enters: process 1 parks at exit


def critical_deadlock_program(force, me):
    if me == 1:
        with force.critical("held"):
            time.sleep(1.5)
    else:
        time.sleep(0.1)
        with force.critical("held"):
            pass


class TestConstructDeadline:
    @pytest.mark.parametrize("program,construct", [
        (consume_deadlock_program, "asyncvar 'never'"),
        (selfsched_deadlock_program, "selfsched 'stuck'"),
        (critical_deadlock_program, "critical 'held'"),
    ], ids=["asyncvar", "selfsched", "critical"])
    def test_deadlock_names_same_construct(self, program, construct):
        verdicts = {}
        for backend in BACKENDS:
            with pytest.raises(ForceDeadlockError) as info:
                _run(backend, program, construct_timeout=0.4)
            verdicts[backend] = (info.value.construct, info.value.timeout,
                                 str(info.value))
        assert verdicts["thread"] == verdicts["process"]
        assert verdicts["thread"][:2] == (construct, 0.4)


# ----------------------------------------------------------------------
# shared-object names
# ----------------------------------------------------------------------

def name_clash_program(force, me, outdir):
    if me != 1:
        return
    force.shared_counter("x")
    force.async_array("a", 3)
    lines = [
        "async_var " + _outcome(lambda: force.async_var("x")),
        "askfor " + _outcome(lambda: force.askfor("x")),
        "async_array " + _outcome(lambda: len(force.async_array("a", 5))),
        "async_array " + _outcome(lambda: len(force.async_array("a", 3))),
        "counter " + _outcome(lambda: int(force.shared_counter("x").value)),
    ]
    _write(outdir, "out", "\n".join(lines) + "\n")


class TestNameClash:
    def test_clash_across_kinds_raises_same_text(self, tmp_path):
        reports = _both(name_clash_program, tmp_path)
        assert reports["thread"] == reports["process"] == {"out": (
            "async_var error: shared object 's:x' already exists as "
            "shared_counter, not async_var\n"
            "askfor error: shared object 's:x' already exists as "
            "shared_counter, not askfor\n"
            "async_array error: async_array 'a' already exists with 3 "
            "cells, not 5\n"
            "async_array 3\n"
            "counter 0\n")}
