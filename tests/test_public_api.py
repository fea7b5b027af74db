"""The lazily exported packages keep their whole public surface.

These packages resolve each ``__all__`` name on first use (see
:mod:`repro._util.lazy`); every spelling a caller may use must still
work: attribute access, ``from package import *`` and ``dir()``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

LAZY_PACKAGES = ("repro.pipeline", "repro.machines", "repro.obsv",
                 "repro.trace", "repro.runtime", "repro.faults")


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_public_names_resolve(name):
    package = importlib.import_module(name)
    assert package.__all__
    for export in package.__all__:
        assert getattr(package, export) is not None, export

    star: dict = {}
    exec(f"from {name} import *", star)
    assert set(package.__all__) <= set(star)

    assert set(package.__all__) <= set(dir(package))

    with pytest.raises(AttributeError, match=name.replace(".", r"\.")):
        getattr(package, "no_such_export")


def test_import_loads_no_submodule_and_dir_lists_unresolved_names():
    src = Path(repro.__file__).resolve().parents[1]
    probe = ("import importlib, json, sys\n"
             f"names = {LAZY_PACKAGES!r}\n"
             "packages = [importlib.import_module(n) for n in names]\n"
             "missing = {p.__name__: sorted(set(p.__all__) - set(dir(p)))\n"
             "           for p in packages}\n"
             "print(json.dumps({'modules': sorted(sys.modules),\n"
             "                  'missing': missing}))\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    submodules = {module for module in report["modules"]
                  for name in LAZY_PACKAGES
                  if module.startswith(name + ".")}
    assert submodules == set()
    assert report["missing"] == {name: [] for name in LAZY_PACKAGES}
