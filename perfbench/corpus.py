"""Seeded input programs and their independent reference outputs.

The workload seed draws every program size; the system under test only
ever sees the rendered Force sources.  Each program carries the output
lines it must print, taken from a closed form or from a small
plain-Python re-implementation of the same arithmetic -- never from the
repro execution tier being measured.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from perfbench import ROOT

#: shipped examples that run to completion, with the parameters their
#: text hard-codes (the reference is computed from these)
EXAMPLES = {
    "jacobi.frc": ("jacobi", {"n": 16, "iters": 30}),
    "sum_critical.frc": ("sum_critical", {"n": 50}),
}


@dataclass(frozen=True)
class Program:
    """One generated input: a Force source plus what it must print."""

    name: str
    source: str
    expected: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False)


def nint(value: float) -> int:
    """Fortran NINT: round half away from zero."""
    rounded = math.floor(abs(value) + 0.5)
    return int(rounded if value >= 0 else -rounded)


def jacobi_reference(n: int, iters: int) -> list[str]:
    u = [0.0] * (n + 1)
    unew = [0.0] * (n + 1)
    u[1] = u[n] = 100.0
    for _ in range(iters):
        for i in range(2, n):
            unew[i] = 0.5 * (u[i - 1] + u[i + 1])
        for i in range(2, n):
            u[i] = unew[i]
    return [f"PROBE {nint(1000.0 * u[4])} {nint(1000.0 * u[n // 2])}"]


def lu_reference(n: int) -> list[str]:
    a = [[0.0] * (n + 1) for _ in range(n + 1)]
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            a[i][j] = 1.0 / float(i + j)
            if i == j:
                a[i][j] += float(n)
    for k in range(1, n):
        for i in range(k + 1, n + 1):
            a[i][k] = a[i][k] / a[k][k]
            for j in range(k + 1, n + 1):
                a[i][j] = a[i][j] - a[i][k] * a[k][j]
    trace = 0.0
    for k in range(1, n + 1):
        trace += a[k][k]
    return [f"TRACEU {nint(1000.0 * trace)}"]


def reference(name: str, params: dict) -> list[str]:
    """Expected output of sample ``name`` rendered with ``params``."""
    p = params
    if name == "sum_critical":
        return [f"TOTAL {p['n'] * (p['n'] + 1) // 2}"]
    if name == "jacobi":
        return jacobi_reference(p["n"], p["iters"])
    if name == "dot_product":
        return [f"DOT {p['n'] * (p['n'] + 1)}"]     # sum of 2*i
    if name == "pipeline":
        return [f"SINK {sum(k * k for k in range(1, p['items'] + 1))}"]
    if name == "sections":
        return ["100"]
    if name == "askfor_tree":
        return [f"NODES {2 ** p['depth'] - 1}"]
    if name == "matrix_scale":
        # A(I,J) = 2*(I+J); CK = A(1,1) + A(rows,cols) + A(2,1)
        return [f"CHECK {2 * (2 + p['rows'] + p['cols'] + 3)}"]
    if name == "lu_decomposition":
        return lu_reference(p["n"])
    if name == "subroutine_call":
        return [f"ACC {1000 + sum(range(1, 11))}"]
    raise KeyError(f"no reference for sample {name!r}")


#: small sizes for the portability corpus: sample -> {param: (lo, hi)}.
#: Ranges stay within a few percent of work so that run-to-run spread
#: comes from the system, not from the seed.
SMALL_SIZES = {
    "sum_critical": {"n": (48, 52)},
    "jacobi": {"n": (16, 16), "iters": (29, 31)},
    "dot_product": {"n": (38, 42)},
    "pipeline": {"items": (8, 8)},
    "sections": {},
    "askfor_tree": {"depth": (5, 5), "work": (1, 2)},
    "matrix_scale": {"rows": (4, 4), "cols": (5, 5)},
    "lu_decomposition": {"n": (8, 8)},
    "subroutine_call": {},
}

#: scaled sizes for run-scaled; compute-bound first, then sync-bound.
#: jacobi keeps n = 256, a size at which the numpy-kernel makespan on hep
#: is known to differ from the tree-walking tier's, and varies the sweeps
SCALED_SIZES = {
    "jacobi": {"n": (256, 256), "iters": (58, 62)},
    "lu_decomposition": {"n": (24, 24)},
    "matrix_scale": {"rows": (31, 33), "cols": (32, 32)},
    "dot_product": {"n": (1950, 2050)},
    "sum_critical": {"n": (970, 1030)},
    "askfor_tree": {"depth": (9, 9), "work": (1, 1)},
    "pipeline": {"items": (290, 310)},
}
COMPUTE_BOUND = ("jacobi", "lu_decomposition", "matrix_scale", "dot_product")


def draw_samples(rng: random.Random, sizes: dict) -> list[Program]:
    """Render each sample in ``sizes`` at sizes drawn from ``rng``."""
    from repro.core.programs import render
    out = []
    for name, ranges in sizes.items():
        params = {key: rng.randint(lo, hi)
                  for key, (lo, hi) in sorted(ranges.items())}
        out.append(Program(name, render(name, **params),
                           tuple(reference(name, params)), params))
    return out


def examples() -> list[Program]:
    """The runnable shipped examples, at their shipped sizes."""
    out = []
    for filename, (sample, params) in EXAMPLES.items():
        text = (ROOT / "examples" / filename).read_text(encoding="utf-8")
        out.append(Program(filename, text,
                           tuple(reference(sample, params)), params))
    return out
