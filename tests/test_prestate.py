"""Tests for pre-execution states and the PE semantics."""

import pytest

from repro.c11.events import Event
from repro.c11.prestate import PreExecutionState, initial_prestate
from repro.interp.pe_model import PEMemoryModel, literals_written
from repro.lang.actions import ActionKind, rd, wr
from repro.lang.builder import acq, assign, eq, if_, seq, swap, var, while_
from repro.lang.program import Program
from repro.lang.semantics import PendingStep


def test_initial_prestate():
    pi = initial_prestate({"x": 0})
    assert len(pi.events) == 1
    assert all(e.is_init for e in pi.events)
    assert pi.sb.pairs == set()


def test_add_event_matches_ra_placement():
    pi = initial_prestate({"x": 0})
    e1 = Event(1, wr("x", 1), 1)
    e2 = Event(2, rd("x", 5), 1)  # any value: pre-executions don't care
    pi2 = pi.add_event(e1).add_event(e2)
    assert (e1, e2) in pi2.sb.pairs
    for i in pi.events:
        assert (i, e1) in pi2.sb.pairs


def test_add_event_duplicate_tag_rejected():
    pi = initial_prestate({"x": 0})
    pi = pi.add_event(Event(1, wr("x", 1), 1))
    with pytest.raises(ValueError):
        pi.add_event(Event(1, wr("x", 2), 2))


def test_prestate_value_object():
    a = initial_prestate({"x": 0}).add_event(Event(1, wr("x", 1), 1))
    b = initial_prestate({"x": 0}).add_event(Event(1, wr("x", 1), 1))
    assert a == b and hash(a) == hash(b)


def test_restricted_to():
    pi = initial_prestate({"x": 0})
    e = Event(1, wr("x", 1), 1)
    pi2 = pi.add_event(e)
    assert pi2.restricted_to(pi.events) == pi


def test_pe_model_reads_enumerate_domain():
    model = PEMemoryModel(frozenset({0, 1, 5}))
    pi = initial_prestate({"x": 0})
    step = PendingStep(ActionKind.RD, var="x", resume=lambda v: None)
    transitions = model.transitions_list(pi, 1, step)
    assert sorted(t.read_value for t in transitions) == [0, 1, 5]
    assert all(t.observed is None for t in transitions)  # PE observes ⊥


def test_pe_model_write_is_deterministic():
    model = PEMemoryModel(frozenset({0}))
    pi = initial_prestate({"x": 0})
    step = PendingStep(ActionKind.WR, var="x", wrval=3, resume=lambda v: None)
    transitions = model.transitions_list(pi, 1, step)
    assert len(transitions) == 1
    assert transitions[0].event.wrval == 3


def test_literals_written_collects_assignments_and_swaps():
    com = seq(
        assign("x", 5),
        swap("t", 2),
        if_(eq(var("x"), 9), assign("y", 7), assign("y", 8)),
        while_(eq(acq("f"), 4), assign("z", 6)),
    )
    # guard literals (9, 4) are not *written*; all assigned literals are
    assert literals_written(com) == {5, 2, 7, 8, 6}


def test_pe_model_for_program_includes_init_values():
    program = Program.parallel(assign("x", 5))
    model = PEMemoryModel.for_program(program, {"x": 1})
    assert model.read_values == {1, 5}
