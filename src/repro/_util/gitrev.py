"""Shared git-revision stamping.

Facts documents and benchmark results both record the revision they
were produced at so consumers can detect staleness: ``force run
--facts`` refuses a facts file whose ``git_revision`` no longer
matches the checkout (the race verdicts were computed for different
source), and BENCH_results.json entries are comparable only within a
revision.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path


def git_revision(root: Path | None = None, *,
                 warn: bool = True) -> str | None:
    """The current short git revision, or None (optionally warning).

    ``root`` defaults to the checkout this package lives in — running
    from an unrelated directory must not stamp that directory's
    revision.  When ``git rev-parse`` is unavailable or fails
    (tarball install, missing git, corrupt checkout), the result
    degrades to ``None`` instead of crashing; the warning goes to
    stderr so it never corrupts a JSON document on stdout.
    """
    if root is None:
        root = Path(__file__).resolve().parents[2]
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        detail = str(exc)
    else:
        if proc.returncode == 0:
            return proc.stdout.strip() or None
        detail = proc.stderr.strip() or f"git exited {proc.returncode}"
    if warn:
        print(f"warning: cannot stamp git revision ({detail}); "
              "recording git_revision: null", file=sys.stderr)
    return None
