"""Deterministic fault plans for the native Force runtime.

A :class:`FaultPlan` is a *seeded, replayable* schedule of faults: each
:class:`FaultSpec` names a fault kind, the interception site it fires
at, and which occurrence in which process triggers it.  Because the
trigger is an exact occurrence count (not a probability evaluated at
run time), re-running the same plan injects the same fault sequence —
the property the chaos harness's replay-with-seed workflow rests on.

Fault kinds
-----------

``raise``
    Raise :class:`~repro.faults.injector.InjectedFault` in the target
    process at the site — an ordinary program error, exercising the
    fail-fast poisoning path (PR 1).
``die``
    Abrupt death of the target process *without construct cleanup*:
    held askfor items stay held, an entered selfsched loop is never
    exited, a barrier partner never arrives.  Exercises the
    dead-worker detection and deadline paths.
``delay``
    Sleep ``seconds`` at the site — a slow lock holder, slow producer
    or slow barrier partner.  The run must still complete correctly.
``lost-wakeup``
    Swallow one ``notify`` at the site (asyncvar produce/consume/void,
    askfor put).  Waiters must survive via periodic revalidation.

Site identifiers
----------------

Sites are the same interception points the metrics/trace hooks use::

    barrier.entry      barrier.episode
    critical.acquire   critical.hold
    selfsched.chunk
    askfor.put         askfor.got
    asyncvar.produce   asyncvar.consume   asyncvar.copy   asyncvar.void

Spec grammar (the CLI's ``--inject`` argument)::

    KIND@SITE[/NAME][:key=value[,key=value...]]

    raise@barrier.entry:proc=2,n=3      # 3rd barrier entry of process 2
    die@askfor.got/jobs:proc=1          # process 1 dies holding a job
    delay@critical.hold/hot:seconds=0.2 # slow holder of critical 'hot'
    lost-wakeup@asyncvar.produce/chan   # swallow one produce notify

``proc=0`` (the default) matches any process; ``n`` counts matching
occurrences (default 1 — the first).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any

from repro._util.errors import ForceError

FAULT_KINDS = ("raise", "die", "delay", "lost-wakeup")

#: interception sites, mirroring the metrics/trace hook points
SITES = (
    "barrier.entry",
    "barrier.episode",
    "critical.acquire",
    "critical.hold",
    "selfsched.chunk",
    "askfor.put",
    "askfor.got",
    "asyncvar.produce",
    "asyncvar.consume",
    "asyncvar.copy",
    "asyncvar.void",
)

#: sites where a ``lost-wakeup`` spec makes sense (they notify someone)
NOTIFY_SITES = ("asyncvar.produce", "asyncvar.consume", "asyncvar.void",
                "askfor.put")


class FaultSpecError(ForceError):
    """A fault spec or plan is malformed."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: ``kind`` at occurrence ``occurrence`` of
    ``site`` (optionally narrowed to construct ``name`` and process
    ``proc``)."""

    kind: str
    site: str
    name: str = ""          # construct name; "" matches any
    proc: int = 0           # force process id; 0 matches any
    occurrence: int = 1     # 1-based count of matching hits
    seconds: float = 0.05   # delay duration (kind == "delay")

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}")
        if self.site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{', '.join(SITES)}")
        if self.kind == "lost-wakeup" and self.site not in NOTIFY_SITES:
            raise FaultSpecError(
                f"lost-wakeup applies only to notifying sites "
                f"({', '.join(NOTIFY_SITES)}), not {self.site!r}")
        if self.proc < 0:
            raise FaultSpecError("proc must be >= 0 (0 = any process)")
        if self.occurrence < 1:
            raise FaultSpecError("occurrence must be >= 1")
        if self.seconds < 0:
            raise FaultSpecError("seconds must be >= 0")

    def matches(self, site: str, name: str, proc: int) -> bool:
        """Does a hit at (site, name, proc) count toward this spec?"""
        return (site == self.site
                and (not self.name or self.name == name)
                and (self.proc == 0 or self.proc == proc))

    def describe(self) -> str:
        where = self.site + (f"/{self.name}" if self.name else "")
        who = f"proc={self.proc}" if self.proc else "any proc"
        text = f"{self.kind}@{where} ({who}, occurrence {self.occurrence}"
        if self.kind == "delay":
            text += f", {self.seconds}s"
        return text + ")"

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "site": self.site, "name": self.name,
                "proc": self.proc, "occurrence": self.occurrence,
                "seconds": self.seconds}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultSpec":
        try:
            return cls(kind=data["kind"], site=data["site"],
                       name=data.get("name", ""),
                       proc=int(data.get("proc", 0)),
                       occurrence=int(data.get("occurrence", 1)),
                       seconds=float(data.get("seconds", 0.05)))
        except KeyError as exc:
            raise FaultSpecError(
                f"fault spec is missing required key {exc}") from None


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the ``KIND@SITE[/NAME][:key=value,...]`` grammar."""
    head, _, options = text.partition(":")
    kind, sep, where = head.partition("@")
    if not sep or not kind or not where:
        raise FaultSpecError(
            f"bad fault spec {text!r}: expected KIND@SITE[/NAME]"
            "[:key=value,...]")
    site, _, name = where.partition("/")
    fields: dict[str, Any] = {"kind": kind.strip(), "site": site.strip(),
                              "name": name.strip()}
    if options:
        for item in options.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep:
                raise FaultSpecError(
                    f"bad fault option {item!r} in {text!r}: expected "
                    "key=value")
            try:
                if key == "proc":
                    fields["proc"] = int(value)
                elif key == "n":
                    fields["occurrence"] = int(value)
                elif key == "seconds":
                    fields["seconds"] = float(value)
                else:
                    raise FaultSpecError(
                        f"unknown fault option {key!r} in {text!r}; "
                        "expected proc=, n= or seconds=")
            except ValueError:
                raise FaultSpecError(
                    f"bad value for {key!r} in {text!r}") from None
    return FaultSpec(**fields)


@dataclass
class FaultPlan:
    """A seeded list of fault specs — one replayable chaos scenario."""

    seed: int = 0
    faults: list[FaultSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise FaultSpecError(
                    f"plan entries must be FaultSpec, got {spec!r}")

    def describe(self) -> str:
        lines = [f"fault plan (seed {self.seed}, "
                 f"{len(self.faults)} fault(s)):"]
        lines += [f"  {spec.describe()}" for spec in self.faults]
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        return {"seed": self.seed,
                "faults": [spec.as_dict() for spec in self.faults]}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict) or "faults" not in data:
            raise FaultSpecError(
                "fault plan JSON must be an object with a 'faults' list")
        faults = [FaultSpec.from_dict(entry)
                  for entry in data["faults"]]
        return cls(seed=int(data.get("seed", 0)), faults=faults)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise FaultSpecError(f"bad fault plan JSON: {exc}") from None

    @classmethod
    def from_specs(cls, specs: list[str], seed: int = 0) -> "FaultPlan":
        return cls(seed=seed,
                   faults=[parse_fault_spec(s) for s in specs])


def random_plan(seed: int, *, nproc: int,
                max_faults: int = 2,
                sites: tuple[str, ...] = SITES,
                max_occurrence: int = 4,
                delay_seconds: float = 0.1,
                kinds: tuple[str, ...] | None = None) -> FaultPlan:
    """One deterministic random plan from ``seed``.

    The same ``(seed, nproc)`` always produces the identical plan —
    chaos sweeps iterate seeds, and a failing seed replays exactly.

    ``kinds`` restricts the drawn fault kinds (e.g. ``("die",)`` for a
    recovery sweep where every fault must be a worker death); omitted,
    the historical mixed distribution is used, so existing seeded
    sweeps keep their plans.
    """
    if kinds is not None:
        if not kinds:
            raise FaultSpecError("kinds must name at least one kind")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise FaultSpecError(
                    f"unknown fault kind {kind!r}; expected one of "
                    f"{', '.join(FAULT_KINDS)}")
        if set(kinds) == {"lost-wakeup"}:
            sites = tuple(s for s in sites if s in NOTIFY_SITES) \
                or NOTIFY_SITES
    rng = random.Random(seed)
    count = rng.randint(1, max(1, max_faults))
    faults = []
    for _ in range(count):
        site = rng.choice(sites)
        if kinds is not None:
            # Never empty: a kinds of exactly {"lost-wakeup"} already
            # restricted sites to the notifying ones above.
            allowed = tuple(k for k in kinds if k != "lost-wakeup"
                            or site in NOTIFY_SITES)
            kind = rng.choice(allowed)
        elif site in NOTIFY_SITES and rng.random() < 0.25:
            kind = "lost-wakeup"
        else:
            kind = rng.choice(("raise", "die", "delay", "delay"))
        faults.append(FaultSpec(
            kind=kind, site=site,
            proc=rng.randint(0, nproc),
            occurrence=rng.randint(1, max_occurrence),
            seconds=round(rng.uniform(0.01, delay_seconds), 3)))
    return FaultPlan(seed=seed, faults=faults)
