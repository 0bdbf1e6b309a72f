"""The proof registry: every registered outline proves; canaries refute.

This is the acceptance surface of the verification workbench
(DESIGN.md §10): the registry must span at least 8 outlines over at
least 2 models, each (outline × model) pair must discharge with zero
failed obligations, and a deliberately broken outline must be *caught*
and localised to a transition — a prover that cannot fail proves
nothing.
"""

import pytest

from repro.engine.plan import SearchPlan
from repro.verify.registry import OUTLINE_MODELS, PROOFS, ProofCaseStudy

PAIRS = PROOFS.pairs()


def test_registry_breadth():
    """≥ 8 outlines across ≥ 2 models (the workbench acceptance bar)."""
    assert len(PROOFS.entries()) >= 8
    assert len({m for _, m in PAIRS}) >= 2
    assert len(PAIRS) >= len(PROOFS.entries())


@pytest.mark.parametrize(
    "name,model", [(e.name, m) for e, m in PAIRS],
)
def test_registered_outline_proves(name, model):
    entry = PROOFS.get(name)
    report = entry.check(model)
    assert report.proved, [str(f) for f in report.failures[:3]]
    assert report.obligations_discharged > 0
    # every named assertion was actually exercised
    assert set(report.per_invariant) == {
        inv.name for inv in entry.outline().invariants
    }


def test_optimal_rejected_for_outline_checks():
    """Discharge is always unreduced: ``explore`` rejects a reducing
    plan for the per-transition obligation hook."""
    entry = PROOFS.get("message-passing")
    optimal = SearchPlan(reduction="optimal")
    with pytest.raises(ValueError, match="optimal"):
        entry.check("ra", plan=optimal)
    with pytest.raises(ValueError, match="optimal"):
        entry.outline().check(entry.program(), dict(entry.init), plan=optimal)


# ----------------------------------------------------------------------
# Refutation canaries: the prover must be able to fail, and to say where
# ----------------------------------------------------------------------


def test_dekker_outline_refuted_under_ra():
    """The same outline object that proves under SC is refuted under RA,
    with the failure pinned to a preservation step (the SB interleaving
    where the second thread enters)."""
    from repro.casestudies.dekker import DEKKER_INIT, dekker_entry_program, dekker_outline
    from repro.interp.ra_model import RAMemoryModel

    report = dekker_outline().check(
        dekker_entry_program(), DEKKER_INIT, model=RAMemoryModel()
    )
    assert not report.proved
    assert all(f.kind == "preservation" for f in report.failures)
    assert all(f.invariant == "mutual exclusion" for f in report.failures)
    assert all(f.step is not None for f in report.failures)


def test_broken_spinlock_refutes_outline():
    """The non-atomic mutant breaks the winner's-ticket obligation."""
    from repro.casestudies.spinlock import (
        SPINLOCK_INIT,
        spinlock_broken,
        spinlock_outline,
    )

    report = spinlock_outline().check(
        spinlock_broken(), SPINLOCK_INIT, plan=SearchPlan(max_events=10)
    )
    assert not report.proved
    failing = {f.invariant for f in report.failures}
    assert "mutual exclusion" in failing


def test_relaxed_seqlock_accepts_torn_snapshot():
    """Dropping the payload release/acquire pair lets a torn snapshot
    through — the outline catches it on a concrete transition."""
    from repro.casestudies.seqlock import (
        SEQLOCK_INIT,
        seqlock_outline,
        seqlock_relaxed_data,
    )

    report = seqlock_outline().check(seqlock_relaxed_data(), SEQLOCK_INIT)
    assert not report.proved
    assert any(
        f.invariant == "accepted snapshot consistent" for f in report.failures
    )


def test_mp_outline_refuted_without_release():
    from repro.casestudies.message_passing import (
        MP_INIT,
        message_passing_broken,
        mp_outline,
    )

    report = mp_outline().check(
        message_passing_broken(), MP_INIT, plan=SearchPlan(max_events=10)
    )
    assert not report.proved


# ----------------------------------------------------------------------
# Registry hygiene
# ----------------------------------------------------------------------


def test_unknown_name_raises_with_choices():
    with pytest.raises(KeyError, match="peterson"):
        PROOFS.get("mutex-деадлок")


def test_duplicate_registration_rejected():
    from repro.verify.registry import ProofRegistry

    reg = ProofRegistry()
    entry = ProofCaseStudy(
        name="x", description="", program=lambda: None, outline=lambda: None
    )
    reg.register(entry)
    with pytest.raises(ValueError, match="duplicate"):
        reg.register(entry)


def test_unknown_model_pin_rejected():
    from repro.verify.registry import ProofRegistry

    reg = ProofRegistry()
    with pytest.raises(ValueError, match="unknown models"):
        reg.register(ProofCaseStudy(
            name="x", description="", program=lambda: None,
            outline=lambda: None, models=("tso",),
        ))


def test_registry_models_are_known():
    for entry in PROOFS.entries():
        assert entry.models
        assert set(entry.models) <= set(OUTLINE_MODELS)
