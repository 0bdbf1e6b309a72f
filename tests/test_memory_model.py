"""Tests for the abstract memory-model interface and adapters."""

import pytest

from repro.c11.state import initial_state
from repro.interp.canon import canonical_key
from repro.interp.memory_model import MemoryModel, MemoryTransition
from repro.interp.pe_model import PEMemoryModel
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.interp.sra_model import SRAMemoryModel
from repro.lang.actions import ActionKind
from repro.lang.semantics import PendingStep


def test_default_canonical_key_is_identity():
    class Dummy(MemoryModel):
        name = "dummy"

        def initial(self, init_values):
            return tuple(sorted(init_values.items()))

        def transitions_list(self, state, tid, step):
            return []

    model = Dummy()
    state = model.initial({"x": 0})
    assert model.canonical_state_key(state) is state


def test_ra_model_canonical_key_uses_canon():
    model = RAMemoryModel()
    state = model.initial({"x": 0})
    assert model.canonical_state_key(state) == canonical_key(state)


def test_model_names():
    assert RAMemoryModel().name == "RA"
    assert SCMemoryModel().name == "SC"
    assert SRAMemoryModel().name == "SRA"
    assert PEMemoryModel(frozenset({0})).name == "PE"


def test_ra_transition_carries_observed_write():
    model = RAMemoryModel()
    state = model.initial({"x": 0})
    step = PendingStep(ActionKind.RD, var="x", resume=lambda v: None)
    (mt,) = model.transitions_list(state, 1, step)
    assert isinstance(mt, MemoryTransition)
    assert mt.observed is not None and mt.observed.is_init
    assert mt.read_value == 0
    assert mt.event is not None and mt.event.is_read


def test_ra_write_transition_has_no_read_value():
    model = RAMemoryModel()
    state = model.initial({"x": 0})
    step = PendingStep(ActionKind.WRR, var="x", wrval=3, resume=lambda v: None)
    (mt,) = model.transitions_list(state, 1, step)
    assert mt.read_value is None
    assert mt.event.wrval == 3 and mt.event.is_release


def test_update_transition_reports_value_read():
    model = RAMemoryModel()
    state = model.initial({"x": 7})
    step = PendingStep(ActionKind.UPD, var="x", wrval=9, resume=lambda v: None)
    (mt,) = model.transitions_list(state, 1, step)
    assert mt.read_value == 7
    assert mt.event.rdval == 7 and mt.event.wrval == 9


def test_sra_initial_matches_ra():
    assert SRAMemoryModel().initial({"x": 0}) == RAMemoryModel().initial({"x": 0})
