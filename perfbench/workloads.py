"""The benchmark's workloads.

All three are closed loops with one client: the next operation starts
when the previous one has finished, and at most two native workers run
at a time.

* ``cli-cold`` -- each operation is one cold ``python -m
  repro.pipeline.cli`` subprocess over the runnable examples: what a
  user at a terminal pays, start-up and imports included.
* ``port-corpus`` -- in process, every ``repro.core.programs`` sample
  plus the runnable examples at seeded small sizes; one operation is
  one (program, machine) pair, translated for all seven ports and run
  on the six paper machines, plus one analysis per program.  This is
  the paper's portability experiment (E1), dominated by the macro
  pipeline.  BENCHMARK.json does not list it: even with timings scaled
  by :func:`perfbench.measure.calibrate`, its ten-run spread stays near
  half the end-to-end bounds, and a third workload would cut every run
  to 20 seconds to fit the time allowed for all runs.
* ``run-scaled`` -- in process, seeded scaled-up programs translated
  and analysed during set-up; one operation runs one program on the
  simulator (facts given, so numpy kernels fire) or natively.  No macro
  expansion; compute-bound and sync-bound programs side by side.

Each workload checks every operation against :mod:`perfbench.corpus`
references and every simulated makespan against the tree-walking tier
(``codegen="interp"``) running the same translation.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from perfbench import ROOT, SRC
from perfbench.corpus import (
    COMPUTE_BOUND,
    SCALED_SIZES,
    SMALL_SIZES,
    draw_samples,
    examples,
)
from perfbench.measure import DeadlineExceeded, import_groups

PAPER_MACHINES = ("hep", "flex32", "encore-multimax", "sequent-balance",
                  "alliant-fx8", "cray-2")
HOST = "python-host"
SIM_NPROC = 4
NATIVE_NPROC = 2
#: wall-clock bound on one operation, seconds
DEADLINE_S = 60.0
#: ``force check`` on one program the analyzer finds nothing wrong with
CLEAN_CHECK = "1 file(s) checked: 0 error(s), 0 warning(s)"
_DIRECTIVE = re.compile(r"^C\$FORCE\s+SHARED\s+(\w+)\s*$", re.MULTILINE)


@dataclass(frozen=True)
class Op:
    kind: str                  # translate | check | run | port | analyze
    program: str
    machine: str | None = None
    backend: str | None = None  # sim | thread | process (run ops)

    @property
    def native(self) -> bool:
        return self.backend in ("thread", "process")

    @property
    def label(self) -> str:
        where = self.backend if self.native else self.machine
        return f"{self.kind}:{self.program}" + (f"@{where}" if where else "")


@dataclass
class Outcome:
    output: list[str] | None = None
    makespan: int | None = None
    exit_code: int = 0
    #: translated Fortran to verify by executing it
    fortran: str | None = None
    #: spans a traced child process recorded
    spans: list | None = None
    #: ``-X importtime`` groups of a traced child process
    imports: dict | None = None


def _repro():
    """The repro modules the workloads call, looked up at call time so
    that :func:`perfbench.spans.install` wrappers apply."""
    import repro.analysis as analysis
    import repro.analysis.facts as facts
    import repro.machines as machines
    import repro.pipeline as pipeline
    return analysis, facts, machines, pipeline


def _deadline_errors():
    from repro._util.errors import ForceDeadlockError, SimDeadlockError
    return (ForceDeadlockError, SimDeadlockError)


class Workload:
    name = ""
    #: set-up imports repro, so repeated samples need fresh processes
    fresh_process_setup = True

    def __init__(self, seed: int, tmpdir: str) -> None:
        self.seed = seed
        self.tmpdir = tmpdir
        self.programs = {p.name: p for p in self.draw(random.Random(seed))}
        self._order = random.Random(f"order-{seed}")
        #: (program, machine) -> interp-tier makespan
        self.oracle_makespans: dict[tuple, int] = {}
        #: program -> (race-free DOALLs, DOALLs) from derived facts
        self.doall_counts: dict[str, tuple[int, int]] = {}
        #: (program, machine) -> codegen counters of its simulated run
        self.codegen_counts: dict[tuple, dict] = {}
        self._verified: dict[str, bool] = {}
        #: interp-tier outputs that disagree with the closed form
        self.oracle_disagreements: list[str] = []

    # -- overridden per workload --------------------------------------
    def draw(self, rng: random.Random):
        raise NotImplementedError

    def base_ops(self) -> list[Op]:
        raise NotImplementedError

    def setup(self) -> None:
        """Everything before the first operation can run."""
        raise NotImplementedError

    def execute(self, op: Op, traced: bool = False) -> Outcome:
        raise NotImplementedError

    def sim_configs(self) -> list[tuple[str, str]]:
        return []

    # -- shared -------------------------------------------------------
    def passes(self):
        """Endless seeded shuffles of :meth:`base_ops`."""
        base = self.base_ops()
        while True:
            ops = list(base)
            self._order.shuffle(ops)
            yield [self.instantiate(op) for op in ops]

    def instantiate(self, op: Op) -> Op:
        return op

    def references(self) -> None:
        """Interp-tier makespans for every simulated configuration."""
        _, _, machines, pipeline = _repro()
        for program, machine in self.sim_configs():
            result = self._interp_run(self.programs[program].source,
                                      machines.get_machine(machine))
            self.oracle_makespans[(program, machine)] = result.makespan
            if tuple(result.output) != self.programs[program].expected:
                self.oracle_disagreements.append(f"{program}@{machine}")

    def _interp_run(self, source: str, machine):
        _, _, _, pipeline = _repro()
        translation = pipeline.force_translate(source, machine)
        return pipeline.force_run(translation, SIM_NPROC, codegen="interp",
                                  deadline=DEADLINE_S)

    def expected(self, op: Op) -> tuple[str, ...]:
        """What a completed operation must output.  The corpus programs
        are all correct Force, so analysing one must find no error."""
        if op.kind == "analyze":
            return ("errors 0",)
        return self.programs[op.program].expected

    def check(self, op: Op, outcome: Outcome) -> list[str]:
        """Failure causes of a completed operation (empty when good)."""
        causes = []
        if outcome.output is not None and \
                tuple(outcome.output) != self.expected(op):
            causes.append("wrong_output")
        if outcome.fortran is not None and \
                not self._translation_runs(op, outcome.fortran):
            causes.append("wrong_output")
        if outcome.makespan is not None and outcome.makespan != \
                self.oracle_makespans[(op.program, op.machine)]:
            causes.append("makespan_mismatch")
        return causes

    def _translation_runs(self, op: Op, fortran: str) -> bool:
        """Does executing ``fortran`` on the tree-walking tier print the
        program's reference output?  Cached per distinct text."""
        key = hashlib.sha256(f"{op.machine}\n{fortran}".encode()).hexdigest()
        if key not in self._verified:
            self._verified[key] = self._run_translation(op, fortran)
        return self._verified[key]

    def _run_translation(self, op: Op, fortran: str) -> bool:
        from repro.pipeline.compile import TranslationResult
        _, _, machines, pipeline = _repro()
        program = self.programs[op.program]
        translation = TranslationResult(
            machine=machines.get_machine(op.machine),
            force_source=program.source, sed_output="", fortran=fortran,
            shared_directives=_DIRECTIVE.findall(fortran))
        try:
            if op.machine == HOST:
                result = pipeline.native_run(
                    translation, NATIVE_NPROC, backend="thread",
                    codegen="interp", deadline=DEADLINE_S)
            else:
                result = pipeline.force_run(
                    translation, SIM_NPROC, codegen="interp",
                    deadline=DEADLINE_S)
        except Exception:      # a translation that does not run is wrong
            return False
        return tuple(result.output) == program.expected

    def derive_facts(self, name: str) -> tuple[dict, int]:
        """``force check --facts`` for one program, through repro's
        public functions; records its DOALL verdict counts.  Returns
        the facts document and the number of error diagnostics."""
        analysis, facts, _, _ = _repro()
        diagnostics, summary = analysis.analyze_source(
            self.programs[name].source, filename=name)
        file_facts = facts.build_file_facts(name, summary)
        doalls = file_facts["doalls"]
        self.doall_counts[name] = (sum(1 for d in doalls if d["race_free"]),
                                   len(doalls))
        doc = {"version": facts.FACTS_VERSION, "generator": "perfbench",
               "files": [file_facts]}
        return doc, analysis.count_errors(diagnostics)

    def simulate(self, op: Op, translation, facts=None) -> Outcome:
        _, _, _, pipeline = _repro()
        try:
            result = pipeline.force_run(translation, SIM_NPROC, facts=facts,
                                        deadline=DEADLINE_S)
        except _deadline_errors() as exc:
            raise DeadlineExceeded(str(exc)) from exc
        counts = {
            "kernel_eligible": sum(map(len, result.kernel_eligible.values())),
            "kernelized": sum(map(len, result.kernelized_doalls.values())),
            "fallbacks": len(result.compile_fallbacks),
        }
        self.codegen_counts.setdefault((op.program, op.machine), counts)
        return Outcome(output=list(result.output), makespan=result.makespan)

    def run_native(self, translation, backend: str) -> Outcome:
        _, _, _, pipeline = _repro()
        try:
            result = pipeline.native_run(translation, NATIVE_NPROC,
                                         backend=backend,
                                         deadline=DEADLINE_S)
        except _deadline_errors() as exc:
            raise DeadlineExceeded(str(exc)) from exc
        return Outcome(output=list(result.output))


# ----------------------------------------------------------------------
class CliCold(Workload):
    name = "cli-cold"
    fresh_process_setup = False

    def draw(self, rng):
        return examples()

    def base_ops(self):
        ops = []
        for name in self.programs:
            ops += [Op("translate", name), Op("check", name),
                    Op("run", name, "sequent-balance", "sim"),
                    Op("run", name, None, "thread"),
                    Op("run", name, None, "process")]
        return ops

    def instantiate(self, op):
        if op.kind == "translate":       # a seeded paper machine each time
            return Op("translate", op.program,
                      self._order.choice(PAPER_MACHINES))
        return op

    def sim_configs(self):
        return [(name, "sequent-balance") for name in self.programs]

    def expected(self, op):
        if op.kind == "check":
            return (CLEAN_CHECK,)
        return super().expected(op)

    def setup(self):
        inputs = Path(self.tmpdir) / "inputs"
        inputs.mkdir(exist_ok=True)
        for program in self.programs.values():
            (inputs / program.name).write_text(program.source,
                                               encoding="utf-8")
        first = next(iter(self.programs))
        self.execute(Op("translate", first, "sequent-balance"))

    @staticmethod
    def command(op: Op) -> str:
        return op.kind if op.kind != "run" else f"run-{op.backend}"

    def argv(self, op: Op) -> list[str]:
        path = str(Path(self.tmpdir) / "inputs" / op.program)
        if op.kind == "translate":
            return ["translate", path, "--machine", op.machine]
        if op.kind == "check":
            return ["check", path]
        nproc = SIM_NPROC if op.backend == "sim" else NATIVE_NPROC
        # the command's own deadline fires well before the kill at DEADLINE_S
        return ["run", path, "--backend", op.backend, "--nproc", str(nproc),
                "--deadline", str(DEADLINE_S / 2), "--format", "json"]

    def execute(self, op, traced=False):
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   TMPDIR=self.tmpdir)
        if traced:
            spanfile = Path(self.tmpdir) / "child-spans.json"
            cmd = [sys.executable, "-X", "importtime",
                   str(ROOT / "perfbench" / "cli_child.py"), str(spanfile)]
        else:
            cmd = [sys.executable, "-m", "repro.pipeline.cli"]
        try:
            proc = subprocess.run(cmd + self.argv(op), env=env,
                                  capture_output=True, text=True,
                                  timeout=DEADLINE_S, cwd=self.tmpdir)
        except subprocess.TimeoutExpired as exc:
            raise DeadlineExceeded(f"{op.label} timed out") from exc
        outcome = Outcome(exit_code=proc.returncode)
        if traced:
            outcome.imports = import_groups(proc.stderr)
            if spanfile.exists():
                outcome.spans = json.loads(spanfile.read_text())
                spanfile.unlink()
        if proc.returncode:
            return outcome
        if op.kind == "translate":
            outcome.fortran = proc.stdout
        elif op.kind == "check":
            outcome.output = proc.stdout.strip().splitlines()[-1:]
        else:
            doc = json.loads(proc.stdout)
            outcome.output = doc["output"]
            outcome.makespan = doc.get("makespan")
        return outcome


# ----------------------------------------------------------------------
class PortCorpus(Workload):
    name = "port-corpus"

    def draw(self, rng):
        return draw_samples(rng, SMALL_SIZES) + examples()

    def base_ops(self):
        ops = []
        for name in self.programs:
            ops += [Op("port", name, machine)
                    for machine in PAPER_MACHINES + (HOST,)]
            ops.append(Op("analyze", name))
        return ops

    def sim_configs(self):
        return [(name, machine) for name in self.programs
                for machine in PAPER_MACHINES]

    def setup(self):
        _repro()
        self.execute(Op("port", "jacobi", "sequent-balance"))

    def execute(self, op, traced=False):
        _, _, machines, pipeline = _repro()
        program = self.programs[op.program]
        if op.kind == "analyze":
            _, errors = self.derive_facts(op.program)
            return Outcome(output=[f"errors {errors}"])
        translation = pipeline.force_translate(
            program.source, machines.get_machine(op.machine))
        if op.machine == HOST:
            return Outcome(fortran=translation.fortran)
        return self.simulate(op, translation)


# ----------------------------------------------------------------------
class RunScaled(Workload):
    name = "run-scaled"

    def draw(self, rng):
        return draw_samples(rng, SCALED_SIZES)

    def base_ops(self):
        ops = []
        for name in self.programs:
            ops += [Op("run", name, "sequent-balance", "sim"),
                    Op("run", name, "hep", "sim"),
                    Op("run", name, HOST, "thread"),
                    Op("run", name, HOST, "process")]
        return ops

    def sim_configs(self):
        return [(name, machine) for name in self.programs
                for machine in ("sequent-balance", "hep")]

    def setup(self):
        _, _, machines, pipeline = _repro()
        self.facts = {}
        self.translations = {}
        for name, program in self.programs.items():
            self.facts[name], _ = self.derive_facts(name)
            for machine in ("sequent-balance", "hep", HOST):
                self.translations[(name, machine)] = \
                    pipeline.force_translate(program.source,
                                             machines.get_machine(machine))
        self.execute(Op("run", COMPUTE_BOUND[0], "sequent-balance", "sim"))

    def execute(self, op, traced=False):
        translation = self.translations[(op.program, op.machine)]
        if op.native:
            return self.run_native(translation, op.backend)
        return self.simulate(op, translation, self.facts[op.program])


WORKLOADS = {cls.name: cls for cls in (CliCold, PortCorpus, RunScaled)}
