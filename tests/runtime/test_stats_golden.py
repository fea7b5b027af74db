"""Golden stats: the deterministic part of ``Force.stats`` and
``force run --stats --format json``.

The expected values below were captured from the runtime before
``--stats`` became a view of the metrics registry; they pin the full
key structure plus every count that does not depend on timing
(barrier episodes and waits, critical acquisitions, selfsched chunks,
indices and ``max_chunk``, askfor puts and gets) on both native
backends.  Times, contention and queue depth vary run to run and are
checked for shape only.
"""

import json
import time
from pathlib import Path

import pytest

from repro.pipeline.cli import main
from repro.runtime import Force

BACKENDS = ("thread", "process")
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

WAIT = dict.fromkeys(
    ("count", "max_s", "mean_s", "min_s", "spread_s", "total_s"))


def _shape(value):
    if isinstance(value, dict):
        return {key: _shape(item) for key, item in sorted(value.items())}
    return None


def _project(stats):
    return {
        "shape": _shape(stats),
        "barrier_episodes": stats["barriers"]["episodes"],
        "barrier_waits": stats["barriers"]["wait"]["count"],
        "critical_acquisitions": {
            name: entry["acquisitions"]
            for name, entry in stats["criticals"].items()},
        "selfsched": stats["selfsched"],
        "askfor": {name: (entry["total_put"], entry["total_got"])
                   for name, entry in stats["askfor"].items()},
    }


def mixed_program(force, me):
    """Every stats-recording construct (module level: must pickle)."""
    force.barrier_section(me, lambda: None)
    counter = force.shared_counter("total")
    for _ in range(20):
        with force.critical("hot"):
            counter.value += 1
    with force.critical("cold"):
        pass
    for _i in force.selfsched_range("even", 1, 30, chunk=4,
                                    schedule="chunked"):
        pass
    for _i in force.selfsched_range("taper", 1, 50, schedule="guided"):
        pass
    for _i in force.selfsched_range("one", 1, 9):
        pass
    force.barrier()
    pool = force.askfor("tree", [4])
    for weight in pool:
        if weight > 1:
            pool.put(weight - 1)
            pool.put(weight - 1)
    channel = force.async_var("channel")
    if me == 1:
        time.sleep(0.05)
        channel.produce(1.0)
    elif me == 2:
        channel.consume()
    force.barrier()


CRITICAL = {"acquisitions": None, "contended": None, "wait": WAIT}
LOOP = dict.fromkeys(("chunks", "indices", "max_chunk"))

API_GOLDEN = {
    "shape": {
        "askfor": {"tree": dict.fromkeys(
            ("max_depth", "total_got", "total_put"))},
        "asyncvar": {"channel": WAIT},
        "barriers": {"episodes": None, "wait": WAIT},
        "criticals": {"cold": CRITICAL, "hot": CRITICAL},
        "nproc": None,
        "selfsched": {"even": LOOP, "one": LOOP, "taper": LOOP},
    },
    "barrier_episodes": 3,
    "barrier_waits": 9,
    "critical_acquisitions": {"cold": 3, "hot": 60},
    "selfsched": {
        "even": {"chunks": 8, "indices": 30, "max_chunk": 4},
        "one": {"chunks": 9, "indices": 9, "max_chunk": 1},
        "taper": {"chunks": 11, "indices": 50, "max_chunk": 16},
    },
    "askfor": {"tree": (15, 15)},
}

CLI_GOLDEN = {
    "shape": {
        "askfor": {},
        "asyncvar": {},
        "barriers": {"episodes": None, "wait": WAIT},
        "criticals": {},
        "native": dict.fromkeys(("backend", "nproc", "wall_s")),
        "nproc": None,
        "selfsched": {},
    },
    "barrier_episodes": 2,
    "barrier_waits": 6,
    "critical_acquisitions": {},
    "selfsched": {},
    "askfor": {},
}


@pytest.mark.parametrize("backend", BACKENDS)
def test_api_stats_golden(backend):
    force = Force(3, backend=backend, stats=True, timeout=60)
    force.run(mixed_program)
    assert _project(force.stats) == API_GOLDEN
    report = force.stats_report()
    headers = [line for line in report.splitlines()
               if line.startswith("---")]
    assert headers == ["--- barriers ---", "--- critical sections ---",
                       "--- selfscheduled loops ---",
                       "--- askfor pools ---",
                       "--- asynchronous variables ---"]
    assert f"{'taper':18s} {11:>8d} chunks, {50:>8d} indices " \
           "(max chunk 16)" in report


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("example", ("jacobi", "sum_critical"))
def test_cli_stats_golden(example, backend, capsys):
    assert main(["run", str(EXAMPLES / f"{example}.frc"), "--machine",
                 "python-host", "--backend", backend, "--nproc", "3",
                 "--stats", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert _project(document["stats"]) == CLI_GOLDEN
    assert document["stats"]["native"]["backend"] == backend


def _exported(registry):
    """``(family, label value) -> exported entry`` of the JSON export."""
    return {(entry["name"], next(iter(entry["labels"].values()), "")):
            entry for entry in registry.as_dict()["metrics"]}


@pytest.mark.parametrize("backend", BACKENDS)
def test_stats_equal_registry_values(backend):
    force = Force(3, backend=backend, stats=True, metrics=True,
                  timeout=60)
    force.run(mixed_program)
    stats = force.stats
    metrics = _exported(force.metrics_registry())

    def value(family, label=""):
        entry = metrics.get((f"force_{family}", label))
        return entry["value"] if entry else 0

    def same_wait(section, family, label=""):
        entry = metrics.get((f"force_{family}", label))
        if entry is None:
            assert section["count"] == 0
            return
        assert (section["count"], section["total_s"], section["min_s"],
                section["max_s"]) == (entry["count"], entry["sum"],
                                      entry["min"], entry["max"])

    assert stats["barriers"]["episodes"] == value(
        "barrier_episodes_total")
    same_wait(stats["barriers"]["wait"], "barrier_wait_seconds")
    for name, entry in stats["criticals"].items():
        assert entry["acquisitions"] == value(
            "critical_acquisitions_total", name)
        assert entry["contended"] == value(
            "critical_contended_total", name)
        same_wait(entry["wait"], "critical_wait_seconds", name)
    for label, entry in stats["selfsched"].items():
        assert entry == {
            "chunks": value("selfsched_chunks_total", label),
            "indices": value("selfsched_indices_total", label),
            "max_chunk": value("selfsched_chunk_max", label)}
    for pool, entry in stats["askfor"].items():
        assert entry == {"total_put": value("askfor_put_total", pool),
                         "total_got": value("askfor_got_total", pool),
                         "max_depth": value("askfor_depth_max", pool)}
    for name, section in stats["asyncvar"].items():
        same_wait(section, "asyncvar_blocked_seconds", name)
    # and nothing the registry counts is missing from the view
    assert {label for family, label in metrics
            if family == "force_critical_acquisitions_total"} \
        == set(stats["criticals"])
    assert {label for family, label in metrics
            if family == "force_selfsched_chunks_total"} \
        == set(stats["selfsched"])
