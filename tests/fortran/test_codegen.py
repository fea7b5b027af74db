"""Source-codegen tier specifics: caching, facts gating, provenance.

The differential contract (codegen vs tree-walker) lives
in ``test_compiled_vs_interp.py``; this file covers what is unique to
the generated-source tier — the artifact cache keyed on the facts
digest, the numpy kernel gate, provenance comments, and the
stale-facts refusal in the CLI.
"""

import json

import pytest

from repro._util.text import strip_margin
from repro.fortran import codegen
from repro.fortran.interp import Cost, Interpreter
from repro.fortran.parser import parse_source

KERNEL_SOURCE = strip_margin("""\
      PROGRAM KERN
      REAL U(10), V(10)
      INTEGER I
      DO 5 I = 1, 10
      U(I) = I * 1.0
5     CONTINUE
      DO 10 I = 2, 9
      V(I) = 0.5 * U(I-1) + 0.5 * U(I+1)
10    CONTINUE
      WRITE(*,*) NINT(V(5))
      END
""")


def kern_facts(race_free=True):
    return {"version": 1, "files": [{"doalls": [
        {"routine": "KERN", "label": 10, "race_free": race_free},
    ]}]}


def run_source_tier(program, facts=None):
    """Run on the codegen tier; return (interp, statements, cost_events)."""
    interp = Interpreter(program, codegen="source", facts=facts)
    statements = 0
    events = 0
    for event in interp.run_program():
        if isinstance(event, Cost):
            statements += event.statements
            events += 1
    return interp, statements, events


class TestFactsDigest:
    def test_no_facts_sentinel(self):
        assert codegen.facts_digest(None) == "no-facts"

    def test_digest_is_key_order_independent(self):
        a = {"files": [{"doalls": []}], "version": 1}
        b = {"version": 1, "files": [{"doalls": []}]}
        assert codegen.facts_digest(a) == codegen.facts_digest(b)

    def test_different_facts_different_digest(self):
        assert codegen.facts_digest(kern_facts(True)) != \
            codegen.facts_digest(kern_facts(False))


class TestArtifactCacheKeyedOnFacts:
    def test_facts_change_invalidates_cached_artifact(self):
        # one parse => one unit object => one WeakKeyDictionary slot;
        # the no-facts artifact must not be reused once a facts doc
        # proves the loop race-free (it was generated without kernels)
        program = parse_source(KERNEL_SOURCE)
        plain, plain_stmts, plain_events = run_source_tier(program)
        assert plain.codegen_kernelized == {}
        gated, gated_stmts, gated_events = run_source_tier(
            program, facts=kern_facts())
        assert gated.codegen_kernelized == {"KERN": [10]}
        # identical semantics, different artifact: statement totals
        # agree while the kernelized run batches into fewer events
        assert gated_stmts == plain_stmts
        assert gated_events < plain_events
        assert plain.output == gated.output

    def test_same_facts_digest_reuses_artifact(self):
        program = parse_source(KERNEL_SOURCE)
        run_source_tier(program, facts=kern_facts())
        cached = codegen._CACHE.get(program.unit("KERN"))
        before = len(cached)
        # a structurally equal facts doc (fresh dict) hits the cache
        run_source_tier(program, facts=kern_facts())
        assert len(cached) == before

    def test_unproven_loop_is_not_kernelized(self):
        program = parse_source(KERNEL_SOURCE)
        interp, _, _ = run_source_tier(program,
                                       facts=kern_facts(race_free=False))
        assert interp.codegen_kernelized == {}


class TestProvenanceComments:
    def test_generated_source_maps_back_to_fortran_lines(self):
        program = parse_source(KERNEL_SOURCE)
        interp, _, _ = run_source_tier(program)
        source = interp.codegen_sources()["KERN"]
        # WRITE sits on line 10 of the Fortran unit; its generated
        # statement carries that provenance marker
        assert "# L10" in source
        assert "unit KERN" in source


class TestStaleFactsRefusal:
    def _fresh(self, monkeypatch, stamped, current):
        from repro._util import gitrev
        from repro.pipeline.cli import _fresh_facts
        monkeypatch.setattr(gitrev, "git_revision",
                            lambda root=None, warn=True: current)
        doc = kern_facts()
        if stamped is not None:
            doc["git_revision"] = stamped
        return _fresh_facts(doc, "facts.json"), doc

    def test_matching_revision_accepted(self, monkeypatch, capsys):
        accepted, doc = self._fresh(monkeypatch, "abc1234", "abc1234")
        assert accepted is doc
        assert capsys.readouterr().err == ""

    def test_mismatch_warns_and_drops(self, monkeypatch, capsys):
        accepted, _ = self._fresh(monkeypatch, "abc1234", "fff9999")
        assert accepted is None
        err = capsys.readouterr().err
        assert "stale facts" in err
        assert "abc1234" in err and "fff9999" in err

    def test_unstamped_doc_accepted(self, monkeypatch, capsys):
        accepted, doc = self._fresh(monkeypatch, None, "abc1234")
        assert accepted is doc

    def test_no_git_accepted(self, monkeypatch, capsys):
        accepted, doc = self._fresh(monkeypatch, "abc1234", None)
        assert accepted is doc

    def test_build_facts_stamps_revision(self):
        from repro.analysis.facts import build_facts
        doc = build_facts([])
        assert "git_revision" in doc
        # JSON round trip keeps the stamp (None outside a checkout)
        assert json.loads(json.dumps(doc))["git_revision"] \
            == doc["git_revision"]


class TestTierSelection:
    def test_env_var_interp(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN", "interp")
        interp = Interpreter(parse_source(KERNEL_SOURCE))
        assert interp.codegen_tier == "interp"

    def test_bad_tier_rejected(self):
        from repro._util.errors import FortranError
        with pytest.raises(FortranError, match="unknown codegen tier"):
            Interpreter(parse_source(KERNEL_SOURCE), codegen="llvm")

    def test_closure_tier_rejected(self, monkeypatch):
        from repro._util.errors import FortranError
        with pytest.raises(FortranError, match="unknown codegen tier"):
            Interpreter(parse_source(KERNEL_SOURCE), codegen="closure")
        monkeypatch.setenv("REPRO_CODEGEN", "closure")
        with pytest.raises(FortranError, match="unknown codegen tier"):
            Interpreter(parse_source(KERNEL_SOURCE))

    def test_no_jit_env_spells_interp(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        monkeypatch.setenv("REPRO_CODEGEN", "source")
        interp = Interpreter(parse_source(KERNEL_SOURCE))
        assert interp.codegen_tier == "interp"

    def test_no_jit_overrides_tier(self):
        from repro.pipeline.cli import _build_parser
        parser = _build_parser()
        for argv, tier in ((["--no-jit"], "interp"),
                           (["--codegen", "interp"], "interp"),
                           (["--codegen", "source"], "source"),
                           ([], None),
                           (["--codegen", "source", "--no-jit"],
                            "interp")):
            args = parser.parse_args(["run", "prog.frc", *argv])
            assert args.codegen == tier, argv
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "prog.frc", "--codegen", "closure"])

    def test_no_jit_cli_runs_tree_walker(self, tmp_path, capsys):
        from pathlib import Path

        from repro.pipeline.cli import main
        example = str(Path(__file__).resolve().parents[2]
                      / "examples" / "jacobi.frc")
        for flag, dumped in (([], True), (["--no-jit"], False)):
            outdir = tmp_path / ("default" if dumped else "no-jit")
            assert main(["run", example, *flag,
                         "--dump-codegen", str(outdir)]) == 0
            files = list(outdir.glob("*.py")) if outdir.exists() else []
            assert bool(files) is dumped, flag
        assert "--codegen interp" in capsys.readouterr().err
