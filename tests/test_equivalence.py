"""Tests for the bounded axiomatisation-equivalence checker (E1)."""

import pytest

from repro.axiomatic import equivalence
from repro.axiomatic.candidates import (
    CandidateSpace,
    count_candidates,
    enumerate_candidates,
)
from repro.axiomatic.canonical import (
    condition_upd,
    is_candidate_execution,
    is_weakly_canonical_consistent,
)
from repro.axiomatic.equivalence import (
    compare_axiomatisations,
    row_verdicts,
    sweep_sizes,
)
from repro.axiomatic.validity import axiom_coherence, axiom_no_thin_air
from repro.lang.actions import ActionKind


def test_size_one_single_var():
    space = CandidateSpace(n_events=1, variables=("x",), values=(1,))
    result = compare_axiomatisations(space)
    assert result.candidates == 6
    assert result.valid_paper == 5  # the self-rf update is the one reject
    assert result.valid_paper == result.valid_canonical
    assert result.equivalent
    assert result.agreed == result.candidates


def test_size_two_single_var():
    space = CandidateSpace(n_events=2, variables=("x",), values=(1,))
    result = compare_axiomatisations(space)
    assert result.candidates == 172
    assert result.equivalent


def test_size_two_two_vars():
    space = CandidateSpace(n_events=2, variables=("x", "y"), values=(1,))
    result = compare_axiomatisations(space)
    assert result.equivalent
    assert result.candidates > 172  # strictly more shapes with two vars


def test_thin_air_only_counts_cyclic_but_coherent():
    """Candidates consistent under both models yet sb ∪ rf-cyclic exist
    only with ≥ 2 threads and ≥ 2 variables (the LB shape needs them)."""
    space = CandidateSpace(
        n_events=4, variables=("x", "y"), values=(1,), max_threads=2
    )
    # too big to run in a unit test in full; cap via a cheap subspace:
    # the LB shape needs exactly rd;wr per thread, so restrict kinds.
    from repro.lang.actions import ActionKind

    lb_space = CandidateSpace(
        n_events=4,
        variables=("x", "y"),
        values=(1,),
        max_threads=2,
        kinds=(ActionKind.RD, ActionKind.WR),
    )
    result = compare_axiomatisations(lb_space)
    assert result.equivalent
    assert result.thin_air_only > 0


def test_row_format():
    space = CandidateSpace(n_events=1, variables=("x",), values=(1,))
    row = compare_axiomatisations(space).row()
    assert "n=1" in row and "mismatches=0" in row


def test_sweep_sizes():
    results = sweep_sizes([1, 2], variables=("x",))
    assert len(results) == 2
    assert all(r.equivalent for r in results)
    assert results[0].space.n_events == 1


#: (candidates, valid_paper, thin_air_only) per space, as the pair-set
#: predicates tallied them before the models moved onto rows.
PINNED_TALLIES = [
    (CandidateSpace(n_events=3), (9584, 1130, 0)),
    (CandidateSpace(n_events=3, max_threads=1), (2396, 125, 0)),
    (CandidateSpace(n_events=2, variables=("x", "y")), (488, 242, 0)),
    (CandidateSpace(n_events=2, values=(1, 2)), (536, 188, 0)),
    (CandidateSpace(n_events=3, variables=("x", "y")), (31552, 6520, 0)),
    (
        CandidateSpace(
            n_events=4, variables=("x", "y"), kinds=(ActionKind.RD, ActionKind.WR)
        ),
        (11264, 4514, 6),
    ),
]


@pytest.mark.parametrize("space, tally", PINNED_TALLIES)
def test_tallies_pinned(space, tally):
    result = compare_axiomatisations(space)
    assert (result.candidates, result.valid_paper, result.thin_air_only) == tally
    assert result.valid_canonical == result.valid_paper
    assert result.agreed == result.candidates
    assert result.equivalent


#: (candidates, valid_paper, valid_canonical, thin_air_only) over every
#: candidate, tallied from the full enumeration before the comparison
#: moved onto the variable-renaming quotient.
QUOTIENT_TALLIES = [
    (
        CandidateSpace(
            n_events=4, variables=("x", "y"), kinds=(ActionKind.RD, ActionKind.WR)
        ),
        (11264, 4514, 4514, 6),
    ),
    (
        CandidateSpace(
            n_events=4,
            variables=("x", "y", "z"),
            kinds=(ActionKind.RD, ActionKind.WR),
        ),
        (35592, 18549, 18549, 18),
    ),
]


@pytest.mark.parametrize("space, tally", QUOTIENT_TALLIES)
def test_renaming_quotient_matches_the_full_enumeration(space, tally):
    """``compare_axiomatisations`` judges one skeleton per variable-
    renaming orbit, weighted by the orbit's size; its tallies equal the
    full enumeration's (``row_verdicts`` keeps enumerating every
    candidate)."""
    full = [0, 0, 0, 0]
    for paper, canonical, no_thin_air in row_verdicts(space):
        full[0] += 1
        full[1] += paper
        full[2] += canonical
        full[3] += paper and canonical and not no_thin_air
    result = compare_axiomatisations(space)
    quotient = (
        result.candidates, result.valid_paper, result.valid_canonical,
        result.thin_air_only,
    )
    assert quotient == tuple(full) == tally
    assert result.equivalent
    judged = sum(1 for _ in equivalence.skeletons(space, up_to_renaming=True))
    assert judged < sum(1 for _ in equivalence.skeletons(space))


# ----------------------------------------------------------------------
# Row verdicts vs the pair-set predicates, candidate by candidate
# ----------------------------------------------------------------------

PARITY_SPACES = {
    "n1-x": CandidateSpace(n_events=1),
    "n2-x": CandidateSpace(n_events=2),
    "n3-x": CandidateSpace(n_events=3),
    "n1-xy": CandidateSpace(n_events=1, variables=("x", "y")),
    "n2-xy": CandidateSpace(n_events=2, variables=("x", "y")),
    "n2-x-values12": CandidateSpace(n_events=2, values=(1, 2)),
    "n4-xy-rd-wr": CandidateSpace(
        n_events=4,
        variables=("x", "y"),
        kinds=(ActionKind.RD, ActionKind.WR),
    ),
    # The message-passing shapes, which need four events: sw needs both
    # a releasing source and an acquiring target.
    "n4-xy-rd-wrR": CandidateSpace(
        n_events=4,
        variables=("x", "y"),
        kinds=(ActionKind.RD, ActionKind.WRR),
    ),
    "n4-xy-rdA-wr": CandidateSpace(
        n_events=4,
        variables=("x", "y"),
        kinds=(ActionKind.RDA, ActionKind.WR),
    ),
}


@pytest.mark.parametrize("name", sorted(PARITY_SPACES))
def test_row_verdicts_match_pair_set_predicates(name):
    """Every candidate, pruned ones included: the row formulas give the
    pair-set predicates' Coherence, Definition C.3 and NoThinAir."""
    space = PARITY_SPACES[name]
    checked = 0
    for state, rows in zip(enumerate_candidates(space), row_verdicts(space)):
        expected = (
            axiom_coherence(state),
            is_weakly_canonical_consistent(state),
            axiom_no_thin_air(state),
        )
        assert rows == expected, (name, checked, state)
        checked += 1
    assert checked == count_candidates(space)
    assert checked == sum(1 for _ in row_verdicts(space))


def test_broken_row_condition_reports_a_candidate_mismatch(monkeypatch):
    """A row condition that always passes must surface as a mismatch,
    kept as a well-formed candidate state."""
    monkeypatch.setattr(equivalence, "_condition_upd", lambda *rows: True)
    space = CandidateSpace(n_events=2, variables=("x",), values=(1,))
    result = compare_axiomatisations(space, keep_mismatches=3)
    assert not result.equivalent
    assert len(result.mismatches) == 3
    assert result.valid_canonical > result.valid_paper
    for state in result.mismatches:
        assert is_candidate_execution(state)
        # the row Coherence is right to reject it; the patched UPD is not
        assert not axiom_coherence(state)
        assert not condition_upd(state)

