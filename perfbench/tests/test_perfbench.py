"""Tests for the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import ROOT, use_checkout_src
from perfbench.measure import (
    CALIBRATION_REF_S,
    Record,
    end_to_end,
    import_groups,
    run_op,
    tail,
)
from perfbench.report import per_layer_units
from perfbench.spans import Span, op_breakdown, self_times

use_checkout_src()

from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    CliCold,
    Op,
    Outcome,
    PortCorpus,
    RunScaled,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=timeout)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# smoke runs: one short pass of each workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_untraced(workload):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert "failed_ops_ratio" in proc.stdout     # printed, with counts


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced(workload):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    # every operation's self times plus "other" add up to its wall time
    assert metrics["trace.balance_error_s"]["value"] < 1e-9
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_run_scaled_counts_the_hep_kernel_makespan_mismatch():
    proc = bench("--workload", "run-scaled", "--seed", "7", "--seconds",
                 "0.1", "--trace", "0")
    result = last_json(proc.stdout)
    assert result["correct"] is True
    assert result["failed"] >= 1
    failures = proc.stdout.split("failed operations:")[1]
    assert "run:jacobi@hep: makespan_mismatch" in failures
    assert result["metrics"]["ok_ops_ratio"]["value"] < 1


def test_fails_without_the_program():
    """A directory holding only the benchmark must not produce a result."""
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(ROOT / "perfbench", f"{scratch}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "port-corpus", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=scratch)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _session_members(sid: int) -> list[str]:
    out = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = (Path("/proc") / entry / "stat").read_text()
        except OSError:
            continue
        if stat.rsplit(")", 1)[1].split()[3] == str(sid):
            out.append(entry)
    return out


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc")
@pytest.mark.parametrize("workload", ["cli-cold", "run-scaled"])
def test_no_process_outlives_a_run(workload):
    """The process backend's resource trackers, in the benchmark and in
    cli-cold's children, are waited for before the benchmark exits."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    proc.communicate(timeout=170)
    assert proc.returncode == 0
    assert _session_members(proc.pid) == []


def test_benchmark_json_names_match_the_report():
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == per_layer_units()
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def _schedule(workload, passes=3):
    gen = workload.passes()
    return [next(gen) for _ in range(passes)]


@pytest.mark.parametrize("cls", [PortCorpus, RunScaled, CliCold])
def test_same_seed_same_inputs(cls, tmp_path):
    a, b = cls(11, str(tmp_path)), cls(11, str(tmp_path))
    assert a.programs == b.programs
    assert _schedule(a) == _schedule(b)
    c = cls(12, str(tmp_path))
    assert _schedule(a) != _schedule(c)


def test_seed_draws_sizes(tmp_path):
    sizes = {tuple(sorted(p.params.items()))
             for seed in range(6)
             for p in RunScaled(seed, str(tmp_path)).programs.values()
             if p.name == "sum_critical"}
    assert len(sizes) > 1


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    workload = PortCorpus(3, str(tmp_path_factory.mktemp("corpus")))
    workload.setup()
    workload.references()
    return workload


def test_closed_forms_agree_with_the_tree_walker(corpus):
    assert corpus.oracle_disagreements == []


def test_oracle_accepts_a_real_run_and_rejects_corruption(corpus):
    op = Op("port", "jacobi", "hep")
    good = corpus.execute(op)
    assert corpus.check(op, good) == []
    bad = Outcome(output=[good.output[0] + "1"], makespan=good.makespan)
    assert corpus.check(op, bad) == ["wrong_output"]
    slow = Outcome(output=good.output, makespan=good.makespan + 1)
    assert corpus.check(op, slow) == ["makespan_mismatch"]


def test_oracle_rejects_a_corrupted_translation(corpus):
    op = Op("port", "sum_critical", "python-host")
    good = corpus.execute(op)
    assert corpus.check(op, good) == []
    broken = good.fortran.replace("TOTAL + K", "TOTAL + 2 * K")
    assert broken != good.fortran
    assert corpus.check(op, Outcome(fortran=broken)) == ["wrong_output"]


def test_analysis_reference(corpus):
    op = Op("analyze", "matrix_scale")
    assert corpus.check(op, corpus.execute(op)) == []
    assert corpus.check(op, Outcome(output=["errors 1"])) == ["wrong_output"]


# ----------------------------------------------------------------------
# accounting and statistics
# ----------------------------------------------------------------------
class _Leaky:
    """A native operation that leaves an arena segment behind."""

    def __init__(self, shm):
        self.shm = shm

    def execute(self, op, traced=False):
        (self.shm / "force-arena-leak").write_text("")
        return Outcome(output=["x"])

    def check(self, op, outcome):
        return []


def test_leaked_segment_fails_the_operation(tmp_path, monkeypatch):
    import perfbench.measure as measure
    monkeypatch.setattr(measure, "SHM_DIR", str(tmp_path))
    record = run_op(_Leaky(tmp_path), Op("run", "p", None, "thread"), 0)
    assert record.causes == ["shm_leak"]
    assert not (tmp_path / "force-arena-leak").exists()


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)


def test_timings_are_scaled_to_the_reference_host():
    """On a host that runs the calibration loop at half the reference
    speed, every end-to-end timing reads half its raw value."""
    op = Op("run", "p", "hep", "sim")
    records = [Record(op, i, 0.2 + 0.01 * i, False) for i in range(20)]
    for record in records[::4]:
        record.calibration = 2 * CALIBRATION_REF_S
    metrics = end_to_end(records, [1.0, 1.2, 1.4],
                         [2 * CALIBRATION_REF_S])
    for name in ("setup_s", "op_p50_s", "op_tail_s"):
        value, _, info = metrics[name]
        assert value == pytest.approx(info["raw"] / 2), name
    assert metrics["setup_s"][0] == pytest.approx(0.6)
    assert metrics["ops_per_s"][0] == pytest.approx(
        2 * metrics["ops_per_s"][2]["raw"])


def test_self_times_add_up_to_the_root():
    spans = [Span("op", 0.0, None, 1), Span("a", 1.0, 0, 1),
             Span("b", 2.0, 1, 1), Span("c", 5.0, 0, 1)]
    for span, end in zip(spans, (10.0, 4.0, 3.0, 6.0)):
        span.end = end
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    row = op_breakdown(spans)[1]
    assert row == {"other": 6.0, "a": 2.0, "b": 1.0, "c": 1.0}
    assert sum(row.values()) == 10.0


def test_import_groups_charge_stdlib_to_the_importer():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     json",
        "import time:       200 |        300 |   repro.sim.events",
        "import time:        50 |         50 |     numpy.core",
        "import time:        10 |         60 |   numpy",
        "import time:         5 |        365 | repro.sim",
        "import time:         7 |          7 | zlib",
    ])
    groups = import_groups(stderr)
    assert groups == pytest.approx({"sim": 305e-6, "numpy": 60e-6,
                                    "total": 365e-6})

