"""Shared infrastructure for the experiment benchmarks (E1–E13).

Each benchmark computes an experiment's data series, asserts the
paper's qualitative claim about its *shape*, records a human-readable
table, and uses pytest-benchmark to time a representative unit of the
pipeline.  Recorded tables are printed in the terminal summary and
written to ``benchmarks/results/`` so EXPERIMENTS.md can reference
them.

Alongside each ``.txt`` table, every benchmark also records one
*machine-readable* result through :func:`record_result` — experiment
name, parameters, wall-clock seconds of the measured unit, the
headline data series, and the git revision it was measured at.  At
session end these merge (by name, newest wins) into
``BENCH_results.json`` at the repo root — the same file and schema
``force bench`` writes — so the perf trajectory of the project
accumulates across runs instead of living only in prose.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import pytest

from repro._util.gitrev import git_revision
from repro.bench import make_entry, merge_results

_RESULTS_DIR = Path(__file__).parent / "results"
_REPO_ROOT = Path(__file__).resolve().parent.parent
_BENCH_FILE = _REPO_ROOT / "BENCH_results.json"
_TABLES: list[tuple[str, str]] = []
_RESULTS: list[dict[str, Any]] = []


@pytest.fixture()
def record_table():
    """Record a named results table for the terminal summary."""

    def _record(title: str, text: str) -> None:
        _TABLES.append((title, text))
        _RESULTS_DIR.mkdir(exist_ok=True)
        slug = "".join(c if c.isalnum() else "_" for c in title.lower())
        (_RESULTS_DIR / f"{slug}.txt").write_text(text + "\n",
                                                  encoding="utf-8")

    return _record


@pytest.fixture()
def record_result():
    """Record one machine-readable benchmark result.

    ``_record(name, params={...}, wall_s=1.23, data={...})`` — name is
    the experiment slug (``e3_barriers``), params the swept dimensions,
    ``wall_s`` the wall-clock seconds of the measured unit, and
    ``data`` whatever headline series the experiment produced (keep it
    JSON-serialisable and small).
    """

    def _record(name: str, *, params: dict[str, Any] | None = None,
                wall_s: float | None = None,
                data: Any = None) -> None:
        _RESULTS.append(make_entry(name, params=params, wall_s=wall_s,
                                   data=data,
                                   revision=git_revision(_REPO_ROOT)))

    return _record


def pytest_sessionfinish(session, exitstatus):
    if _RESULTS:
        merge_results(_BENCH_FILE, _RESULTS)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.section("experiment result tables")
    for title, text in _TABLES:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"── {title} " + "─" * max(
            0, 68 - len(title)))
        for line in text.split("\n"):
            terminalreporter.write_line(line)
