"""Chaos sweep — outcome counts recorded to ``BENCH_results.json``.

The chaos invariant itself (no hangs, no corruption, structured
errors) is asserted in ``tests/faults/test_chaos_sweep.py``.  This
benchmark replays the same seeded sweep and records its outcome
counts through :func:`record_result`, so the counts join the perf
history without tier-1 ever writing into the checkout.
"""

from repro.faults.chaos import chaos_sweep
from tests.faults.test_chaos_sweep import (
    CONSTRUCT_TIMEOUT,
    DEADLINE,
    NPROC,
    RUNS,
    SEED,
)


def test_outcomes_recorded_to_bench_results(record_result):
    report = chaos_sweep(seed=SEED, runs=RUNS, nproc=NPROC,
                         deadline=DEADLINE,
                         construct_timeout=CONSTRUCT_TIMEOUT)
    assert report.violations == []
    record_result(
        "chaos_sweep",
        params={"seed": SEED, "runs": RUNS, "nproc": NPROC,
                "deadline_s": DEADLINE,
                "construct_timeout_s": CONSTRUCT_TIMEOUT},
        wall_s=round(sum(o.elapsed for o in report.outcomes), 3),
        data={"counts": report.counts,
              "faults_injected": report.faults_injected,
              "violations": len(report.violations)})
