"""Each ``force`` subcommand imports only the layers it runs.

A cold ``force`` process pays for every module it imports before it
does any work, so the import set is part of the command's cost.  Each
test runs one subcommand on ``examples/jacobi.frc`` in a fresh
interpreter and reads ``sys.modules`` afterwards.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = Path(repro.__file__).resolve().parents[1]
_JACOBI = str(_SRC.parent / "examples" / "jacobi.frc")

_PROBE = """\
import contextlib, io, json, sys
from repro.pipeline.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
print(json.dumps({"status": status, "modules": sorted(sys.modules)}))
"""


def _modules_after(*argv: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == 0, proc.stderr
    return set(report["modules"])


def _under(modules: set[str], *packages: str) -> set[str]:
    return {name for name in modules
            for package in packages
            if name == package or name.startswith(package + ".")}


@pytest.fixture(scope="module")
def translate_modules() -> set[str]:
    return _modules_after("translate", _JACOBI, "--machine", "hep")


def test_translate_loads_no_execution_layer(translate_modules):
    assert "repro.pipeline.compile" in translate_modules
    assert _under(translate_modules, "numpy", "multiprocessing",
                  "repro.fortran", "repro.sim", "repro.runtime",
                  "repro.obsv", "repro.trace", "repro.analysis") == set()


def test_check_adds_only_the_analyzer(translate_modules):
    added = _modules_after("check", _JACOBI) - translate_modules
    assert _under(added, "repro.analysis")
    heavy = _under(added, "repro", "numpy", "multiprocessing")
    assert heavy == _under(added, "repro.analysis")


def test_sim_run_loads_no_native_layer():
    modules = _modules_after("run", _JACOBI, "--nproc", "2")
    assert "repro.sim.scheduler" in modules
    assert _under(modules, "repro.runtime", "repro.obsv", "repro.trace",
                  "repro.faults", "multiprocessing") == set()


def test_thread_run_loads_no_process_backend_or_forensics():
    modules = _modules_after("run", _JACOBI, "--nproc", "2",
                             "--backend", "thread")
    assert "repro.runtime.force" in modules
    assert _under(modules, "repro.runtime.procforce", "repro.obsv.analyze",
                  "repro.obsv.profile", "repro.obsv.tune",
                  "multiprocessing") == set()
