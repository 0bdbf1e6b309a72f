"""Dekker's entry protocol: broken under RA, fine under SC."""

import pytest

from repro.casestudies.dekker import (
    CRITICAL,
    DEKKER_INIT,
    dekker_entry_program,
    dekker_violations,
    in_critical_section,
)
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel


def test_pc_tracking_through_branches():
    """The nested critical-section label is observable as the pc."""
    program = dekker_entry_program()
    visited = []
    explore(
        program,
        DEKKER_INIT,
        RAMemoryModel(),
        check_config=lambda config: visited.append(config) or [],
    )
    pcs_seen = {config.pc(1) for config in visited}
    assert CRITICAL in pcs_seen
    assert 6 in pcs_seen  # the back-off branch is reachable too


def test_dekker_fails_under_ra_relaxed():
    result = explore(
        dekker_entry_program(release_acquire=False),
        DEKKER_INIT,
        RAMemoryModel(),
        check_config=dekker_violations,
    )
    assert not result.ok  # both threads enter: the SB weak behaviour


def test_dekker_fails_under_ra_even_with_release_acquire():
    """Release/acquire annotations do NOT repair store buffering —
    Dekker is unfixable in the RAR fragment without an RMW arbiter."""
    result = explore(
        dekker_entry_program(release_acquire=True),
        DEKKER_INIT,
        RAMemoryModel(),
        check_config=dekker_violations,
    )
    assert not result.ok


def test_dekker_holds_under_sc():
    result = explore(
        dekker_entry_program(),
        DEKKER_INIT,
        SCMemoryModel(),
        check_config=dekker_violations,
    )
    assert result.ok


def test_counterexample_is_store_buffering():
    """The violating trace is the SB shape: both reads return stale 0."""
    result = explore(
        dekker_entry_program(),
        DEKKER_INIT,
        RAMemoryModel(),
        check_config=dekker_violations,
        stop_on_violation=True,
    )
    trace = result.counterexample()
    reads = [s.event for s in trace if s.event is not None and s.event.is_read]
    assert len(reads) == 2
    assert all(r.rdval == 0 for r in reads)
    assert all(s.observed.is_init for s in trace if s.event in reads)
