"""Proof-outline checking (the Appendix D proof structure, mechanised)."""

import pytest

from repro.casestudies.peterson import PETERSON_INIT, peterson_program, peterson_relaxed_turn
from repro.engine.plan import SearchPlan
from repro.interp.sc import SCMemoryModel
from repro.lang.builder import assign, label, seq, var
from repro.lang.program import Program
from repro.verify.assertions import DV
from repro.verify.outline import ProofOutline, peterson_outline


def test_peterson_outline_proves():
    report = peterson_outline().check(
        peterson_program(once=True), PETERSON_INIT,
        plan=SearchPlan(max_events=9),
    )
    assert report.proved, [str(f) for f in report.failures[:3]]
    assert report.obligations_discharged > 1000


def test_peterson_outline_fails_on_mutant():
    """The relaxed-turn mutant breaks at least one obligation — the
    outline localises the failing invariant and transition."""
    report = peterson_outline().check(
        peterson_relaxed_turn(once=True), PETERSON_INIT,
        plan=SearchPlan(max_events=9),
    )
    assert not report.proved
    failing = {f.invariant for f in report.failures}
    # The first domino: invariant (4) — turn stops being update-only the
    # moment the mutant's plain write lands (everything downstream of it
    # in the paper's proof then has no footing).
    assert any("(4)" in name for name in failing)
    assert all(f.kind == "preservation" for f in report.failures)


def test_initialisation_obligation():
    outline = ProofOutline().everywhere("x starts 9", DV("x", 1, 9))
    report = outline.check(Program.parallel(assign("x", 1)), {"x": 0})
    assert not report.proved
    assert report.failures[0].kind == "initialisation"


def test_preservation_obligation_reports_step():
    outline = ProofOutline().everywhere("x stays 0 for t1", DV("x", 1, 0))
    report = outline.check(Program.parallel(assign("x", 1)), {"x": 0})
    assert not report.proved
    pres = [f for f in report.failures if f.kind == "preservation"]
    assert pres and pres[0].step is not None
    assert pres[0].step.event.wrval == 1


def test_at_guards_by_pc_vector():
    program = Program.parallel(
        seq(label(1, assign("x", 5)), label(2, assign("y", 1)))
    )
    outline = ProofOutline().at(
        "x=5 once past line 1", {1: (2,)}, DV("x", 1, 5)
    )
    report = outline.check(program, {"x": 0, "y": 0})
    assert report.proved


def test_outline_with_sc_model():
    outline = ProofOutline()  # empty outline holds trivially
    report = outline.check(
        Program.parallel(assign("x", 1)), {"x": 0}, model=SCMemoryModel()
    )
    assert report.proved
    assert "OK" in report.row()
