"""The token-ring hand-off lock (extension case study)."""

import pytest

from repro.casestudies.token_ring import (
    CRITICAL,
    TOKEN_INIT,
    token_ring_invariants,
    token_ring_program,
    token_ring_violations,
)
from repro.checking.soundness import check_soundness
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.verify.invariants import check_invariants


def test_two_threads_mutual_exclusion():
    visited = []

    def check(config):
        visited.append(config)
        return token_ring_violations(config)

    result = explore(
        token_ring_program(2),
        TOKEN_INIT,
        RAMemoryModel(),
        max_events=10,
        check_config=check,
    )
    assert result.ok
    # both threads actually enter
    entered = {
        t
        for config in visited
        for t in (1, 2)
        if config.pc(t) == CRITICAL
    }
    assert entered == {1, 2}


def test_three_threads_mutual_exclusion():
    result = explore(
        token_ring_program(3),
        TOKEN_INIT,
        RAMemoryModel(),
        max_events=11,
        check_config=token_ring_violations,
    )
    assert result.ok


def test_token_stays_update_only():
    report = check_invariants(
        token_ring_program(2),
        TOKEN_INIT,
        token_ring_invariants(),
        max_events=10,
        name="token-ring",
    )
    assert report.all_hold


def test_token_ring_soundness():
    report = check_soundness(
        token_ring_program(2), TOKEN_INIT, max_events=9, name="token-ring"
    )
    assert report.sound


def test_handoff_completes():
    """With enough budget both threads terminate (token goes around)."""
    result = explore(
        token_ring_program(2), TOKEN_INIT, RAMemoryModel(), max_events=12
    )
    assert result.terminal
