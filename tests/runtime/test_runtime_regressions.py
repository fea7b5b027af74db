"""Regression tests for native-runtime bugs fixed alongside the
cancellation layer: implicit barrier ids, selfsched early exit, and
Askfor holder/drain bookkeeping."""

import gc
import sys
import threading
import time

import pytest

from repro.runtime import (
    BARRIER_ALGORITHMS,
    AskforMonitor,
    Force,
    ForceProgramError,
    make_barrier,
)
from repro._util.errors import ForceError


class TestImplicitBarrierMe:
    """``force.barrier()`` with no argument must derive the caller's
    process id — passing 0 aliased the last process's flag slots in the
    structured algorithms and deadlocked or released early."""

    @pytest.mark.parametrize("algorithm", list(BARRIER_ALGORITHMS))
    def test_noarg_barrier_synchronizes(self, algorithm):
        force = Force(nproc=4, timeout=20, barrier_algorithm=algorithm)
        phase_one = []
        after = []
        lock = threading.Lock()

        def program(force, me):
            for _round in range(3):
                with lock:
                    phase_one.append(me)
                force.barrier()          # no explicit me
                with lock:
                    after.append(len(phase_one))
                force.barrier()

        force.run(program)
        assert all(count % 4 == 0 for count in after)

    @pytest.mark.parametrize("algorithm", ["dissemination", "tournament"])
    def test_structured_barriers_reject_invalid_me(self, algorithm):
        barrier = make_barrier(algorithm, 4)
        with pytest.raises(ForceError):
            barrier.wait(0)
        with pytest.raises(ForceError):
            barrier.wait(5)

    def test_barrier_outside_force_requires_me(self):
        force = Force(nproc=2, timeout=10)
        with pytest.raises(ForceError):
            force.barrier()

    def test_single_process_barrier_outside_run(self):
        Force(nproc=1, timeout=10).barrier()


class TestSelfschedEarlyExit:
    def test_break_then_reuse_same_label(self):
        force = Force(nproc=3, timeout=20)
        second_sweep = []
        lock = threading.Lock()

        def program(force, me):
            for _i in force.selfsched_range("L", 1, 30):
                if me == 1:
                    break                 # early exit mid-loop
            for i in force.selfsched_range("L", 1, 10):
                with lock:
                    second_sweep.append(i)

        force.run(program)
        assert sorted(second_sweep) == list(range(1, 11))

    def test_every_process_breaks(self):
        force = Force(nproc=4, timeout=20)
        sweeps = []
        lock = threading.Lock()

        def program(force, me):
            for _sweep in range(3):
                for _i in force.selfsched_range("L", 1, 100):
                    break
                with lock:
                    sweeps.append(me)

        force.run(program)
        assert len(sweeps) == 12

    def test_single_process_break_and_reuse(self):
        force = Force(nproc=1, timeout=10)
        seen = []

        def program(force, me):
            for _i in force.selfsched_range("L", 1, 5):
                break
            for i in force.selfsched_range("L", 1, 3):
                seen.append(i)

        force.run(program)
        assert seen == [1, 2, 3]


class TestAskforBookkeeping:
    def test_holder_threads_initialised(self):
        # Holders are tracked by thread *object* (ident -> Thread) so
        # dead holders can be detected by liveness.
        monitor = AskforMonitor([1, 2])
        assert monitor._holders._threads == {}

    def test_terminated_pool_drains_remaining_items(self):
        monitor = AskforMonitor()
        assert monitor.get() == (False, None)       # terminates
        # Simulate an item that landed just before termination was
        # observed: the drain contract hands it out rather than
        # dropping it.
        monitor._items.append("straggler")
        got, item = monitor.get()
        assert got and item == "straggler"
        assert monitor.get() == (False, None)

    def test_put_after_termination_raises_not_drops(self):
        monitor = AskforMonitor()
        monitor.get()
        before = monitor.total_put
        with pytest.raises(ForceError):
            monitor.put("lost")
        assert monitor.total_put == before

    def test_counts_balance_at_termination(self):
        monitor = AskforMonitor([5])
        lock = threading.Lock()
        done = []

        def worker():
            for weight in monitor:
                if weight > 1:
                    monitor.put(weight - 1)
                    monitor.put(weight - 1)
                with lock:
                    done.append(weight)

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
            assert not t.is_alive()
        assert monitor.total_put == monitor.total_got == len(done)

    def test_max_depth_tracks_high_water_mark(self):
        monitor = AskforMonitor([1])
        assert monitor.max_depth == 1
        monitor.put(2)
        monitor.put(3)
        assert monitor.max_depth == 3
        monitor.get()
        monitor.put(4)                # depth back to 3, not a new high
        assert monitor.max_depth == 3


class TestAbandonedSelfschedOnPoisonedForce:
    def test_generator_close_reports_no_unraisable(self, monkeypatch):
        # Process 1 holds a live selfsched generator when a barrier
        # raises ForceCancelled; closing the abandoned generator must
        # not wait for the exit phase on the poisoned force (which
        # raised during GeneratorExit and was reported as unraisable).
        reported = []
        monkeypatch.setattr(sys, "unraisablehook", reported.append)
        force = Force(nproc=2, timeout=20)

        def program(force, me):
            if me == 2:
                time.sleep(0.1)
                raise ValueError("boom")
            indices = force.selfsched_range("L", 1, 10)
            next(indices)
            force.barrier()

        with pytest.raises(ForceProgramError) as info:
            force.run(program)
        assert info.value.me == 2
        gc.collect()
        assert [hook.exc_value for hook in reported] == []
