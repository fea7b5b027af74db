"""The chaos harness: seeded fault sweeps over the native corpus.

One chaos *run* executes one corpus program under one
:class:`~repro.faults.plan.FaultPlan` and classifies the outcome.  The
harness asserts the robustness invariant this subsystem exists for:

    Under any injected fault plan, a run terminates within its
    deadline with either a *correct result* or a *structured error
    naming the faulted process/construct* — never a hang, never
    silent corruption.

Outcome classes
---------------

Invariant-satisfying:

``ok``
    The force completed and the program's result oracle passed.
``recovered``
    (Supervised runs only.)  At least one attempt failed transiently,
    and the supervisor's retry — resumed from the newest barrier-epoch
    checkpoint, possibly at reduced nproc — completed with the oracle
    passing AND the final shared state **bit-identical** to a
    fault-free run of the same program (the differential state-digest
    oracle).  This is the self-healing invariant of PR 9.
``injected-error``
    The run failed with the injected :class:`InjectedFault` itself
    (fail-fast poisoning worked).
``worker-died``
    An injected death was detected and reported as
    :class:`~repro._util.errors.ForceWorkerDied` naming the process.
``deadlock``
    A stranded construct was reported as
    :class:`~repro._util.errors.ForceDeadlockError` naming it.

Invariant violations:

``corrupt``
    The force *completed* but the oracle failed — silent corruption.
``program-error``
    An unexpected error not traceable to the injection (the corpus
    programs are correct, so this is a runtime bug).
``hang``
    The run exceeded its wall budget (``deadline`` + grace) — even if
    it eventually returned, the no-hang guarantee was broken.

A sweep iterates ``runs`` seeds (``seed0 + i``), derives one
:func:`~repro.faults.plan.random_plan` per seed, and cycles through
the corpus; the same ``(seed0, runs, nproc)`` always replays the same
plans, so any failing seed reproduces its fault sequence exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import monotonic
from typing import Any

from repro._util.gitrev import git_revision
from repro.faults.corpus import CORPUS, ChaosCheckError, ChaosProgram
from repro.faults.injector import InjectedFault
from repro.faults.plan import FaultPlan, random_plan
from repro.runtime.checkpoint import (
    CheckpointError,
    CheckpointPolicy,
    state_digest,
)
from repro.runtime.force import Force, ForceProgramError
from repro.runtime.supervisor import RetryPolicy, SupervisedRun
from repro._util.errors import (
    ForceDeadlockError,
    ForceError,
    ForceWorkerDied,
)
from repro.trace.export import write_trace_file

#: outcome classes that satisfy the chaos invariant
INVARIANT_OK = ("ok", "recovered", "injected-error", "worker-died",
                "deadlock")

#: outcome classes that violate it
INVARIANT_VIOLATIONS = ("corrupt", "program-error", "hang")

#: extra wall-clock slack beyond the join deadline before a run counts
#: as a hang (join + construct teardown + interpreter overhead)
HANG_GRACE = 5.0

#: construct family (ChaosProgram.exercises) -> injection sites the
#: family actually visits; targeting plans at these keeps the sweep's
#: fault hit rate high instead of scheduling faults at sites a
#: program never reaches
_FAMILY_SITES: dict[str, tuple[str, ...]] = {
    "barrier": ("barrier.entry", "barrier.episode"),
    "barrier-section": ("barrier.entry",),
    "critical": ("critical.acquire", "critical.hold"),
    "selfsched": ("selfsched.chunk",),
    "askfor": ("askfor.put", "askfor.got"),
    "asyncvar": ("asyncvar.produce", "asyncvar.consume"),
}


def sites_for(entry: ChaosProgram) -> tuple[str, ...]:
    """The injection sites a corpus program can actually reach."""
    sites: list[str] = []
    for family in entry.exercises:
        for site in _FAMILY_SITES.get(family, ()):
            if site not in sites:
                sites.append(site)
    return tuple(sites) or ("barrier.entry",)


@dataclass
class ChaosOutcome:
    """One classified chaos run."""

    program: str
    seed: int
    status: str
    elapsed: float
    error: str = ""
    injected: list[str] = field(default_factory=list)
    plan: FaultPlan | None = None
    #: the exact run configuration (nproc, timeouts, backend,
    #: supervision knobs) — what :func:`replay_command` rebuilds the
    #: command line from, and what makes artifact counts reproduce
    #: across hosts
    config: dict[str, Any] = field(default_factory=dict)
    #: sha256 of the final shared state (set when it was readable)
    state_digest: str = ""
    #: the fault-free run's digest (supervised runs only)
    oracle_digest: str = ""
    #: the supervisor's attempt-by-attempt report (supervised only)
    supervision: dict[str, Any] | None = None

    @property
    def violates_invariant(self) -> bool:
        return self.status in INVARIANT_VIOLATIONS

    def describe(self) -> str:
        text = (f"{self.program} seed={self.seed}: {self.status} "
                f"({self.elapsed:.2f}s, "
                f"{len(self.injected)} fault(s) injected)")
        if self.supervision is not None:
            text += (f"\n    supervised: {self.supervision['retries']} "
                     f"retr{'y' if self.supervision['retries'] == 1 else 'ies'}, "
                     f"{self.supervision['recoveries']} resume(s), "
                     f"{self.supervision['degraded_restarts']} degraded, "
                     f"final nproc {self.supervision['final_nproc']}")
        if self.error:
            text += f"\n    {self.error}"
        for fired in self.injected:
            text += f"\n    injected: {fired}"
        return text

    def as_dict(self) -> dict[str, Any]:
        return {"program": self.program, "seed": self.seed,
                "status": self.status,
                "elapsed": round(self.elapsed, 4),
                "error": self.error, "injected": list(self.injected),
                "plan": self.plan.as_dict() if self.plan else None,
                "config": dict(self.config),
                "state_digest": self.state_digest,
                "oracle_digest": self.oracle_digest,
                "supervision": self.supervision}


def _classify_failure(exc: ForceError) -> tuple[str, str]:
    """Map a Force.run failure to (status, message)."""
    if isinstance(exc, ForceWorkerDied):
        return "worker-died", str(exc)
    if isinstance(exc, ForceDeadlockError):
        return "deadlock", str(exc)
    if isinstance(exc, ForceProgramError):
        if isinstance(exc.original, InjectedFault):
            return "injected-error", str(exc)
        return "program-error", str(exc)
    return "program-error", str(exc)


#: an every-n too large to ever fire — arms the process backend's
#: final-state capture (readable post-run) without writing snapshots
_CAPTURE_ONLY_EVERY_N = 10 ** 9


def final_state(force: Force) -> dict[str, Any] | None:
    """The run's final shared-state snapshot document, or ``None``
    when it is not capturable (process-backend run that failed, or
    never armed capture)."""
    try:
        return force.capture_state()
    except CheckpointError:
        return None


def _result_view(force: Force, doc: dict[str, Any] | None) -> Force:
    """A force whose shared state is readable for the result oracle.

    The thread backend keeps shared objects on the heap, so the force
    itself is the view.  The process backend tears its arena down
    inside ``run()``; checks there read a re-materialized
    thread-backend view of the captured final state.
    """
    if force.backend == "thread":
        return force
    if doc is None:
        raise ForceError(
            "process-backend final state was not captured; cannot "
            "run the result oracle")
    return Force(force.nproc, restore=doc)


def _run_config(*, nproc: int, deadline: float, construct_timeout: float,
                barrier_algorithm: str, backend: str,
                max_faults: int | None = None,
                fault_kinds: tuple[str, ...] | None = None,
                supervised: bool = False,
                min_nproc: int | None = None,
                retries: int | None = None) -> dict[str, Any]:
    """The exact-replay configuration recorded on every outcome.

    Everything that shapes either the derived fault plan or the run's
    classification goes in here — most importantly the pinned
    ``construct_timeout``, whose host-dependent default used to make
    sweep counts flap between machines.
    """
    config: dict[str, Any] = {
        "nproc": nproc,
        "deadline": deadline,
        "construct_timeout": construct_timeout,
        "barrier_algorithm": barrier_algorithm,
        "backend": backend,
        "supervised": supervised,
    }
    if max_faults is not None:
        config["max_faults"] = max_faults
    if fault_kinds:
        config["fault_kinds"] = list(fault_kinds)
    if supervised:
        config["min_nproc"] = min_nproc
        config["retries"] = retries
    return config


def replay_command(outcome: ChaosOutcome) -> str:
    """The exact ``force chaos`` command line that replays a run.

    Built from the outcome's recorded config, so a failure artifact is
    reproducible on any host without guessing defaults.
    """
    config = outcome.config
    parts = ["force", "chaos", "--seed", str(outcome.seed),
             "--runs", "1"]
    if config.get("nproc"):
        parts += ["--nproc", str(config["nproc"])]
    if config.get("deadline") is not None:
        parts += ["--deadline", format(config["deadline"], "g")]
    if config.get("construct_timeout") is not None:
        parts += ["--construct-timeout",
                  format(config["construct_timeout"], "g")]
    if config.get("barrier_algorithm"):
        parts += ["--barrier", config["barrier_algorithm"]]
    if config.get("backend", "thread") != "thread":
        parts += ["--backend", config["backend"]]
    if config.get("max_faults") is not None:
        parts += ["--max-faults", str(config["max_faults"])]
    if config.get("fault_kinds"):
        parts += ["--fault-kinds", ",".join(config["fault_kinds"])]
    if config.get("supervised"):
        parts.append("--supervise")
        if config.get("min_nproc"):
            parts += ["--min-nproc", str(config["min_nproc"])]
        if config.get("retries") is not None:
            parts += ["--retries", str(config["retries"])]
    parts.append(outcome.program)
    return " ".join(parts)


def run_one(entry: ChaosProgram, plan: FaultPlan, *,
            nproc: int | None = None,
            deadline: float = 10.0,
            construct_timeout: float = 2.0,
            barrier_algorithm: str = "central-counter",
            backend: str = "thread",
            trace: bool = True,
            config: dict[str, Any] | None = None) -> tuple[ChaosOutcome,
                                                           Force]:
    """Execute one corpus program under one fault plan and classify.

    Returns the outcome *and* the force, so callers can pull trace
    events for failure artifacts.
    """
    width = nproc or entry.nproc
    capture_dir = None
    checkpoint = None
    if backend == "process":
        # Capture-only policy: never snapshots, but makes the final
        # state readable after the arena is torn down.
        capture_dir = tempfile.mkdtemp(prefix="force-chaos-")
        checkpoint = CheckpointPolicy(_CAPTURE_ONLY_EVERY_N, capture_dir)
    force = Force(width, timeout=deadline,
                  construct_timeout=construct_timeout,
                  barrier_algorithm=barrier_algorithm,
                  trace=trace, inject=plan, backend=backend,
                  checkpoint=checkpoint)
    start = monotonic()
    status, error, digest = "ok", "", ""
    try:
        try:
            force.run(entry.program)
        except ForceError as exc:
            status, error = _classify_failure(exc)
        else:
            doc = final_state(force)
            if doc is not None:
                digest = state_digest(doc)
            try:
                entry.check(_result_view(force, doc))
            except ChaosCheckError as exc:
                status, error = "corrupt", str(exc)
    finally:
        if capture_dir is not None:
            shutil.rmtree(capture_dir, ignore_errors=True)
    elapsed = monotonic() - start
    if elapsed > deadline + HANG_GRACE:
        # It returned eventually, but way past its budget: the no-hang
        # guarantee is already broken.
        status = "hang"
        error = (f"run took {elapsed:.1f}s against a {deadline:.1f}s "
                 f"deadline (+{HANG_GRACE:.0f}s grace)" +
                 (f"; underlying: {error}" if error else ""))
    injected = [record.describe()
                for record in (force.injected_faults() or [])]
    outcome = ChaosOutcome(
        program=entry.name, seed=plan.seed, status=status,
        elapsed=elapsed, error=error, injected=injected, plan=plan,
        state_digest=digest,
        config=config or _run_config(
            nproc=width, deadline=deadline,
            construct_timeout=construct_timeout,
            barrier_algorithm=barrier_algorithm, backend=backend))
    return outcome, force


def oracle_digest(entry: ChaosProgram, *,
                  nproc: int | None = None,
                  deadline: float = 10.0,
                  construct_timeout: float = 2.0,
                  barrier_algorithm: str = "central-counter",
                  backend: str = "thread") -> str:
    """Digest of the program's fault-free final shared state.

    This is the reference side of the differential oracle: a
    supervised run that reports ``recovered`` must match it bit for
    bit.  Digests are backend-specific (the process backend stores
    scalars as float64 cells), so compare like with like.
    """
    width = nproc or entry.nproc
    capture_dir = tempfile.mkdtemp(prefix="force-oracle-")
    try:
        force = Force(width, timeout=deadline,
                      construct_timeout=construct_timeout,
                      barrier_algorithm=barrier_algorithm,
                      trace=False, backend=backend,
                      checkpoint=CheckpointPolicy(_CAPTURE_ONLY_EVERY_N,
                                                  capture_dir))
        force.run(entry.program)
        doc = force.capture_state()
        entry.check(_result_view(force, doc))
        return state_digest(doc)
    finally:
        shutil.rmtree(capture_dir, ignore_errors=True)


def run_supervised(entry: ChaosProgram, plan: FaultPlan, *,
                   nproc: int | None = None,
                   min_nproc: int | None = None,
                   deadline: float = 10.0,
                   construct_timeout: float = 2.0,
                   barrier_algorithm: str = "central-counter",
                   backend: str = "thread",
                   trace: bool = True,
                   checkpoint_dir: str | None = None,
                   every_n_barriers: int = 1,
                   retry: RetryPolicy | None = None,
                   oracle: str | None = None,
                   config: dict[str, Any] | None = None,
                   ) -> tuple[ChaosOutcome, Force | None]:
    """One corpus program under supervision: die, recover, compare.

    The run executes under a :class:`SupervisedRun` with barrier-epoch
    checkpointing armed; a transiently failed attempt is retried from
    the newest snapshot (elastically, down to ``min_nproc``).  Success
    after at least one retry classifies as ``recovered`` — but only if
    the result oracle passes AND the final shared state's digest
    equals the fault-free ``oracle`` digest (computed here when not
    supplied).  Any divergence is ``corrupt``: recovery that changes
    the answer is corruption with extra steps.
    """
    width = nproc or entry.nproc
    if oracle is None:
        oracle = oracle_digest(
            entry, nproc=width, deadline=deadline,
            construct_timeout=construct_timeout,
            barrier_algorithm=barrier_algorithm, backend=backend)
    temp_dir = None
    if checkpoint_dir is None:
        checkpoint_dir = temp_dir = tempfile.mkdtemp(prefix="force-ckpt-")
    retry = retry or RetryPolicy(seed=plan.seed)
    supervised = SupervisedRun(
        entry.program, nproc=width, backend=backend,
        checkpoint=CheckpointPolicy(every_n_barriers, checkpoint_dir),
        min_nproc=min_nproc, retry=retry, inject=plan,
        timeout=deadline, construct_timeout=construct_timeout,
        barrier_algorithm=barrier_algorithm, trace=trace)
    start = monotonic()
    status, error, digest = "ok", "", ""
    force: Force | None = None
    supervision: dict[str, Any] | None = None
    try:
        try:
            result = supervised.run()
        except ForceError as exc:
            status, error = _classify_failure(exc)
        else:
            status = "recovered" if result.retries else "ok"
            force = result.force
            doc = final_state(force) if force is not None else None
            if doc is not None:
                digest = state_digest(doc)
            try:
                entry.check(_result_view(force, doc))
            except ChaosCheckError as exc:
                status, error = "corrupt", str(exc)
            else:
                if digest != oracle:
                    status = "corrupt"
                    error = (
                        f"final state digest {digest[:12]} differs "
                        f"from the fault-free oracle {oracle[:12]}: "
                        "the recovered run silently diverged")
        finally:
            if supervised.last_result is not None:
                supervision = supervised.last_result.as_dict()
                if force is None:
                    force = supervised.last_result.force
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)
    elapsed = monotonic() - start
    attempts = len(supervision["attempts"]) if supervision else 1
    backoffs = sum(a["backoff"] for a in supervision["attempts"]) \
        if supervision else 0.0
    budget = deadline * attempts + backoffs
    if elapsed > budget + HANG_GRACE:
        status = "hang"
        error = (f"supervised run took {elapsed:.1f}s against a "
                 f"{budget:.1f}s budget ({attempts} attempt(s) "
                 f"+{HANG_GRACE:.0f}s grace)" +
                 (f"; underlying: {error}" if error else ""))
    injected = [record.describe() for record in supervised.fired]
    outcome = ChaosOutcome(
        program=entry.name, seed=plan.seed, status=status,
        elapsed=elapsed, error=error, injected=injected, plan=plan,
        state_digest=digest, oracle_digest=oracle,
        supervision=supervision,
        config=config or _run_config(
            nproc=width, deadline=deadline,
            construct_timeout=construct_timeout,
            barrier_algorithm=barrier_algorithm, backend=backend,
            supervised=True, min_nproc=min_nproc,
            retries=retry.retries))
    return outcome, force


@dataclass
class ChaosReport:
    """Aggregate of one sweep, with its full pinned configuration.

    Recording the configuration (most importantly the explicit
    ``construct_timeout``) is what makes outcome counts reproduce
    across hosts: two machines running the same seed with the same
    recorded config classify identically.
    """

    seed: int
    runs: int
    nproc: int
    outcomes: list[ChaosOutcome]
    deadline: float = 10.0
    construct_timeout: float = 2.0
    barrier_algorithm: str = "central-counter"
    backend: str = "thread"
    supervised: bool = False
    min_nproc: int | None = None
    fault_kinds: tuple[str, ...] | None = None
    max_faults: int | None = None

    @property
    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return dict(sorted(tally.items()))

    @property
    def faults_injected(self) -> int:
        return sum(len(outcome.injected) for outcome in self.outcomes)

    @property
    def violations(self) -> list[ChaosOutcome]:
        return [o for o in self.outcomes if o.violates_invariant]

    @property
    def config(self) -> dict[str, Any]:
        return {"deadline": self.deadline,
                "construct_timeout": self.construct_timeout,
                "barrier_algorithm": self.barrier_algorithm,
                "backend": self.backend,
                "supervised": self.supervised,
                "min_nproc": self.min_nproc,
                "fault_kinds": list(self.fault_kinds)
                if self.fault_kinds else None,
                "max_faults": self.max_faults}

    def as_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "runs": self.runs,
                "nproc": self.nproc, "counts": self.counts,
                "config": self.config,
                "faults_injected": self.faults_injected,
                "violations": [o.as_dict() for o in self.violations],
                "outcomes": [o.as_dict() for o in self.outcomes]}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def render_report(report: ChaosReport) -> str:
    lines = [f"chaos sweep: {report.runs} run(s), seed {report.seed}, "
             f"nproc {report.nproc}",
             f"config: backend={report.backend} "
             f"construct-timeout={report.construct_timeout:g}s "
             f"deadline={report.deadline:g}s "
             f"barrier={report.barrier_algorithm}"
             + (f" supervised(min-nproc={report.min_nproc})"
                if report.supervised else ""),
             f"faults injected: {report.faults_injected}"]
    for status, count in report.counts.items():
        marker = "!!" if status in INVARIANT_VIOLATIONS else "ok"
        lines.append(f"  [{marker}] {status:<15} {count}")
    if report.violations:
        lines.append("invariant violations:")
        for outcome in report.violations:
            lines.append("  " + outcome.describe().replace("\n", "\n  "))
            lines.append(f"    replay: {replay_command(outcome)}")
    else:
        lines.append("invariant held: every run terminated with a "
                     "correct result or a structured error")
    return "\n".join(lines)


def write_failure_artifacts(directory: str, outcome: ChaosOutcome,
                            force: Force | None) -> list[str]:
    """Dump the failing plan + trace for offline replay/triage.

    The outcome document carries the repository revision (``null``
    outside a usable checkout, same degrade rule as ``force bench``)
    and the exact replay command line, so a failure artifact from any
    host is actionable as-is.
    """
    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(
        directory, f"{outcome.program}-seed{outcome.seed}")
    written = []
    if outcome.plan is not None:
        plan_path = stem + ".plan.json"
        with open(plan_path, "w", encoding="utf-8") as handle:
            handle.write(outcome.plan.to_json() + "\n")
        written.append(plan_path)
    events = force.trace_events() \
        if force is not None and force.trace_enabled else []
    if events:
        trace_path = stem + ".trace.json"
        write_trace_file(trace_path, events)
        written.append(trace_path)
    document = outcome.as_dict()
    document["git_revision"] = git_revision()
    document["replay"] = replay_command(outcome)
    outcome_path = stem + ".outcome.json"
    with open(outcome_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    written.append(outcome_path)
    return written


def chaos_sweep(*, seed: int, runs: int,
                programs: list[str] | None = None,
                nproc: int = 4,
                deadline: float = 10.0,
                construct_timeout: float = 2.0,
                barrier_algorithm: str = "central-counter",
                max_faults: int = 3,
                artifacts_dir: str | None = None,
                progress=None,
                backend: str = "thread",
                fault_kinds: tuple[str, ...] | None = None,
                supervise: bool = False,
                min_nproc: int | None = None,
                retries: int = 3,
                degrade_after: int = 2,
                checkpoint_root: str | None = None) -> ChaosReport:
    """Run ``runs`` seeded fault plans across the corpus.

    Run *i* uses seed ``seed + i`` and corpus program ``i mod len``;
    the whole sweep is a pure function of its arguments — including
    the explicitly pinned ``construct_timeout`` recorded in the report
    — so re-running it (or any single seed) replays identical fault
    sequences and identical classifications on any host.

    ``fault_kinds`` narrows the drawn kinds (``("die",)`` for a
    recovery sweep).  ``supervise=True`` turns the sweep into the
    recovery differential oracle: each run executes under a
    :class:`~repro.runtime.supervisor.SupervisedRun` with barrier-epoch
    checkpointing (snapshots under ``checkpoint_root``, or a temp dir
    per run), retried faults must *recover* — oracle-passing, digest
    bit-identical to a fault-free run — and ``min_nproc`` below nproc
    additionally exercises elastic restart at reduced width.
    """
    names = programs or list(CORPUS)
    unknown = [name for name in names if name not in CORPUS]
    if unknown:
        raise ForceError(
            f"unknown chaos program(s) {', '.join(unknown)}; corpus: "
            f"{', '.join(CORPUS)}")
    if runs < 1:
        raise ForceError("chaos sweep needs at least one run")
    outcomes = []
    oracles: dict[str, str] = {}
    for index in range(runs):
        entry = CORPUS[names[index % len(names)]]
        plan = random_plan(seed + index, nproc=nproc,
                           max_faults=max_faults,
                           sites=sites_for(entry),
                           kinds=fault_kinds)
        config = _run_config(
            nproc=nproc, deadline=deadline,
            construct_timeout=construct_timeout,
            barrier_algorithm=barrier_algorithm, backend=backend,
            max_faults=max_faults, fault_kinds=fault_kinds,
            supervised=supervise, min_nproc=min_nproc,
            retries=retries if supervise else None)
        if supervise:
            if entry.name not in oracles:
                oracles[entry.name] = oracle_digest(
                    entry, nproc=nproc, deadline=deadline,
                    construct_timeout=construct_timeout,
                    barrier_algorithm=barrier_algorithm,
                    backend=backend)
            checkpoint_dir = None
            if checkpoint_root:
                checkpoint_dir = os.path.join(
                    checkpoint_root, f"{entry.name}-seed{plan.seed}")
            outcome, force = run_supervised(
                entry, plan, nproc=nproc, min_nproc=min_nproc,
                deadline=deadline, construct_timeout=construct_timeout,
                barrier_algorithm=barrier_algorithm, backend=backend,
                checkpoint_dir=checkpoint_dir,
                retry=RetryPolicy(retries=retries,
                                  degrade_after=degrade_after,
                                  seed=plan.seed),
                oracle=oracles[entry.name], config=config)
        else:
            outcome, force = run_one(
                entry, plan, nproc=nproc, deadline=deadline,
                construct_timeout=construct_timeout,
                barrier_algorithm=barrier_algorithm, backend=backend,
                config=config)
        outcomes.append(outcome)
        if outcome.violates_invariant and artifacts_dir:
            write_failure_artifacts(artifacts_dir, outcome, force)
        if progress is not None:
            progress(outcome)
    return ChaosReport(seed=seed, runs=runs, nproc=nproc,
                       outcomes=outcomes, deadline=deadline,
                       construct_timeout=construct_timeout,
                       barrier_algorithm=barrier_algorithm,
                       backend=backend, supervised=supervise,
                       min_nproc=min_nproc, fault_kinds=fault_kinds,
                       max_faults=max_faults)
