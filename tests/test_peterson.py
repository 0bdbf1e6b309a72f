"""Peterson's algorithm: Theorem 5.8, invariants (4)–(10), mutants.

This is the paper's case study (Section 5.2 / Appendix D) made
machine-checked over a bounded state space.
"""

import pytest

from repro.casestudies.peterson import (
    CRITICAL,
    PETERSON_INIT,
    mutual_exclusion_violations,
    peterson_invariants,
    peterson_program,
    peterson_relaxed_flag_read,
    peterson_relaxed_turn,
    theorem_5_8,
)
from repro.checking.soundness import check_soundness
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.verify.invariants import check_invariants

BOUND = 10


@pytest.fixture(scope="module")
def exploration():
    """The search's result and every configuration it visited."""
    visited = []

    def check(config):
        visited.append(config)
        return mutual_exclusion_violations(config)

    result = explore(
        peterson_program(once=True),
        PETERSON_INIT,
        RAMemoryModel(),
        max_events=BOUND,
        check_config=check,
    )
    return result, visited


def test_theorem_5_8_mutual_exclusion(exploration):
    result, _ = exploration
    assert result.ok
    assert result.configs > 100  # state space is non-trivial


def test_theorem_5_8_predicate_everywhere(exploration):
    for config in exploration[1]:
        assert theorem_5_8(config)


def test_critical_section_is_actually_reachable(exploration):
    """Mutex must not hold vacuously: each thread does enter its CS."""
    reached = {
        t
        for config in exploration[1]
        for t in (1, 2)
        if config.pc(t) == CRITICAL
    }
    assert reached == {1, 2}


def test_invariants_4_to_10_hold():
    report = check_invariants(
        peterson_program(once=True),
        PETERSON_INIT,
        peterson_invariants(),
        max_events=BOUND,
        name="peterson",
    )
    assert report.all_hold, [str(f) for f in report.failures[:3]]
    assert len(report.holds_everywhere) == 12  # (4),(5) + 5 per-thread pairs


def test_invariants_hold_on_looping_version():
    report = check_invariants(
        peterson_program(),
        PETERSON_INIT,
        peterson_invariants(),
        max_events=9,
        name="peterson-loop",
    )
    assert report.all_hold


def test_mutual_exclusion_under_sc():
    result = explore(
        peterson_program(once=True),
        PETERSON_INIT,
        SCMemoryModel(),
        check_config=mutual_exclusion_violations,
    )
    assert result.ok


def test_relaxed_turn_mutant_violates_mutex():
    """Replacing the swap by a relaxed write breaks mutual exclusion."""
    result = explore(
        peterson_relaxed_turn(once=True),
        PETERSON_INIT,
        RAMemoryModel(),
        max_events=BOUND,
        check_config=mutual_exclusion_violations,
        stop_on_violation=True,
    )
    assert not result.ok
    trace = result.counterexample()
    assert trace  # a concrete interleaving witnesses the violation


def test_relaxed_turn_mutant_fine_under_sc():
    """The same mutant is correct under SC — the bug is weak-memory-only."""
    result = explore(
        peterson_relaxed_turn(once=True),
        PETERSON_INIT,
        SCMemoryModel(),
        check_config=mutual_exclusion_violations,
    )
    assert result.ok


def test_relaxed_flag_read_mutant_keeps_mutex_operationally():
    """Dropping the acquire on the flag read does NOT break mutual
    exclusion in the RA semantics: the swap's synchronisation already
    forces the second swapper to encounter the other thread's flag write
    (Example 3.6's discussion).  The acquire matters for the *proof*
    (AcqRd/Transfer), not for this property."""
    result = explore(
        peterson_relaxed_flag_read(once=True),
        PETERSON_INIT,
        RAMemoryModel(),
        max_events=BOUND,
        check_config=mutual_exclusion_violations,
    )
    assert result.ok


def test_peterson_states_are_all_axiomatically_valid():
    report = check_soundness(
        peterson_program(once=True),
        PETERSON_INIT,
        max_events=8,
        name="peterson",
    )
    assert report.sound
