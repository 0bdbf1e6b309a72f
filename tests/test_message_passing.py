"""Example 5.7 (message passing) as a case study."""

import pytest

from repro.casestudies.message_passing import (
    MP_INIT,
    PAYLOAD,
    message_passing_broken,
    message_passing_program,
    mp_data_invariant,
    mp_pairs_init,
    mp_pairs_program,
    mp_result_violations,
)
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.litmus.registry import final_values
from repro.verify.invariants import check_invariants

BOUND = 9


def test_consumer_always_reads_payload():
    result = explore(
        message_passing_program(),
        MP_INIT,
        RAMemoryModel(),
        max_events=BOUND,
        check_config=mp_result_violations,
    )
    assert result.ok
    assert result.terminal  # full runs exist within the bound
    for config in result.terminal:
        assert final_values(config)["r"] == PAYLOAD


def test_key_proof_obligation_d_determinate_at_line_2():
    report = check_invariants(
        message_passing_program(),
        MP_INIT,
        mp_data_invariant(),
        max_events=BOUND,
        name="MP",
    )
    assert report.all_hold, [str(f) for f in report.failures[:3]]


def test_broken_variant_reads_stale_data():
    result = explore(
        message_passing_broken(),
        MP_INIT,
        RAMemoryModel(),
        max_events=BOUND,
    )
    finals = {final_values(c)["r"] for c in result.terminal}
    assert 0 in finals  # the stale read is reachable
    assert PAYLOAD in finals


def test_broken_variant_invariant_fails():
    report = check_invariants(
        message_passing_broken(),
        MP_INIT,
        mp_data_invariant(),
        max_events=BOUND,
        name="MP-broken",
    )
    assert not report.all_hold


def test_broken_variant_fine_under_sc():
    result = explore(
        message_passing_broken(), MP_INIT, SCMemoryModel(),
        check_config=mp_result_violations,
    )
    assert result.ok


def test_no_acquire_variant_also_broken():
    program = message_passing_program(acquire=False)
    result = explore(program, MP_INIT, RAMemoryModel(), max_events=BOUND)
    finals = {final_values(c)["r"] for c in result.terminal}
    assert 0 in finals


def test_mp_pairs_family_is_disjoint_copies():
    program = mp_pairs_program(2)
    assert program.tids == (1, 2, 3, 4)
    assert set(mp_pairs_init(2)) == {"d1", "f1", "r1", "d2", "f2", "r2"}
    result = explore(program, mp_pairs_init(2), RAMemoryModel(), max_events=12)
    assert result.terminal
    for config in result.terminal:
        values = final_values(config)
        assert values["r1"] == values["r2"] == PAYLOAD


def test_mp_pairs_optimal_outcome_parity():
    """Two pairs at a small bound: ``optimal`` finds the unreduced
    outcome set, truncation flag and all, in fewer configurations."""
    results = {
        reduction: explore(
            mp_pairs_program(2), mp_pairs_init(2), RAMemoryModel(),
            max_events=12, reduction=reduction,
        )
        for reduction in ("none", "optimal")
    }

    def outcomes(result):
        return {tuple(sorted(final_values(c).items())) for c in result.terminal}

    full, reduced = results["none"], results["optimal"]
    assert outcomes(reduced) == outcomes(full)
    assert reduced.truncated == full.truncated
    assert reduced.configs < full.configs
