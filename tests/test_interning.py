"""Interned machine states and memoized successors (DESIGN.md §12).

A :class:`~repro.interp.compiled.LoweredTable` interns its programs: one
:class:`~repro.interp.compiled.LoweredProgram` per distinct ``pcs``, each
caching its successor per ``(slot, read value)``.  A search therefore
builds each machine state once, and an expansion whose program side it
has seen before builds none.
"""

import pickle

import pytest

from repro.casestudies.token_ring import TOKEN_INIT, token_ring_program
from repro.engine.core import _state_size
from repro.interp import compiled
from repro.interp.compiled import LoweredProgram, maybe_lower
from repro.interp.config import Configuration
from repro.interp.explore import explore
from repro.interp.interpreter import thread_successor_list
from repro.interp.ra_model import RAMemoryModel
from repro.litmus.suite import test_by_name as litmus_test


def test_a_second_search_constructs_no_program(monkeypatch):
    program = maybe_lower(token_ring_program(n_threads=4))
    first = explore(program, TOKEN_INIT, RAMemoryModel(), max_events=12)
    interned = len(program.table.programs)
    assert 100 <= interned <= 120  # 109 distinct machine states at b12
    built = []
    init = LoweredProgram.__init__

    def counting(self, *args):
        built.append(args[1])
        init(self, *args)

    monkeypatch.setattr(LoweredProgram, "__init__", counting)
    second = explore(program, TOKEN_INIT, RAMemoryModel(), max_events=12)
    assert built == []
    assert len(program.table.programs) == interned
    assert (second.configs, second.transitions) == (first.configs, first.transitions)


def test_equal_machine_states_are_one_object():
    program = maybe_lower(litmus_test("SB").program)
    table = program.table
    assert table.program(program.pcs) is program
    assert table.program(tuple(list(program.pcs))) is program
    assert program.update_slot(0, *program.pcs[0]) is program
    visited = []
    explore(program, litmus_test("SB").init, RAMemoryModel(),
            check_config=lambda config: visited.append(config) or [])
    for config in visited:
        lowered = config.program
        assert table.programs[lowered.pcs] is lowered


def test_unpickling_in_process_returns_the_interned_object():
    """Checkpoint resume and shard payloads load programs whose table is
    alive in the loading process: they are the table's own objects."""
    program = maybe_lower(litmus_test("MP+rel-acq").program)
    result = explore(program, litmus_test("MP+rel-acq").init, RAMemoryModel())
    terminal = result.terminal[0].program
    for p in (program, terminal):
        assert pickle.loads(pickle.dumps(p)) is p
    keys = list(result.parents)
    assert all(a[0] is b[0] for a, b in zip(pickle.loads(pickle.dumps(keys)), keys))


def test_unpickling_without_the_table_re_lowers(monkeypatch):
    """A table that is not alive in the loading process (another
    process's) is compiled from the shipped source."""
    program = maybe_lower(litmus_test("SB").program)
    blob = pickle.dumps(program)
    monkeypatch.setattr(compiled, "_LIVE_TABLES", {})
    clone = pickle.loads(blob)
    assert clone is not program and clone == program
    assert clone.table is not program.table


def test_successors_are_memoized_per_slot_and_read_value():
    test = litmus_test("SB")
    model = RAMemoryModel()
    program = maybe_lower(test.program)
    config = Configuration(program, model.initial(test.init))
    for tid, step in program.pending_steps().items():
        first = thread_successor_list(config, model, tid, step)
        again = thread_successor_list(config, model, tid, step)
        assert [s.target.program for s in first] == [s.target.program for s in again]
        assert all(a.target.program is b.target.program
                   for a, b in zip(first, again))
        slot = program.table.slot_of[tid]
        for s in first:
            assert program.succ[slot][s.read_value] is s.target.program


class _BoundGuardedRA(RAMemoryModel):
    """RA that refuses to be asked about a configuration at the bound."""

    bound = 3

    def transitions_list(self, state, tid, step):
        assert _state_size(state) < self.bound, "model ran at the event bound"
        return super().transitions_list(state, tid, step)


@pytest.mark.parametrize(
    "reduction,shards",
    [("none", 1), ("optimal", 1), ("none", 2)],
)
def test_no_explorer_runs_the_model_at_the_bound(reduction, shards):
    test = litmus_test("MP+rel-acq")
    guarded = explore(
        test.program, test.init, _BoundGuardedRA(), max_events=3,
        reduction=reduction, shards=shards, shard_processes=False,
    )
    plain = explore(
        test.program, test.init, RAMemoryModel(), max_events=3,
        reduction=reduction,
    )
    assert guarded.truncated and plain.truncated
    assert (guarded.configs, guarded.transitions) == (plain.configs, plain.transitions)
