"""The Force compilation and execution pipeline (§4.3).

Compilation proceeds in three steps, as in the paper: the stream editor
translates Force syntax into parameterized function macros
(:mod:`repro.sedstage`); the m4-style processor replaces them, in two
levels, with Fortran plus runtime-library calls (:mod:`repro.macros`);
and the "manufacturer's compiler" — our F77 interpreter — executes the
result on the simulated machine (:mod:`repro.sim`).

The machine-dependent driver module is placed at the beginning of the
code, and the Sequent's two-run linker protocol is emulated faithfully:
the startup subroutine is executed first to produce linker commands,
which are applied before the real run.
"""

from repro._util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.pipeline.compile": ("force_translate", "TranslationResult"),
    "repro.pipeline.run": ("force_run", "force_compile_and_run",
                           "RunResult"),
    "repro.pipeline.native": ("native_run", "NativeRunResult"),
})
