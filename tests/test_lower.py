"""Unit tests for the lowering compiler (DESIGN.md §12).

The exploration-level check against the reference semantics lives in
tests/test_lower_parity.py; this file checks the compiler's pieces in
isolation: symbolic stepping against the reference ``command_steps``,
postfix expression programs, keep maps and jump/back-edge resolution.
"""

import pytest

from repro.interp.compiled import LoweredProgram, maybe_lower, step_of
from repro.interp.interpreter import initial_configuration, successor_list
from repro.interp.ra_model import RAMemoryModel
from repro.lang.builder import (
    add,
    assign,
    eq,
    faa,
    if_,
    seq,
    skip,
    swap,
    var,
    while_,
)
from repro.lang.lower import (
    FRESH,
    PC_TERM,
    SymVal,
    compile_ops,
    com_syms,
    concretize,
    eval_ops,
    lower_thread,
    sym_step,
)
from repro.lang.program import Program
from repro.lang.semantics import command_steps
from repro.lang.syntax import Lit


# ----------------------------------------------------------------------
# sym_step against the reference semantics
# ----------------------------------------------------------------------

SAMPLE_COMMANDS = [
    assign("x", 1),
    assign("x", 1, release=True),
    assign("r", var("x")),
    assign("r", add(var("x"), 2)),
    seq(assign("x", 1), assign("y", 2)),
    seq(skip(), assign("x", 3)),
    if_(eq(var("x"), 1), assign("r", 1), assign("r", 2)),
    while_(eq(var("x"), 0), skip()),
    swap("l", 1, "r"),
    faa("c", 2, "old"),
]


@pytest.mark.parametrize("com", SAMPLE_COMMANDS, ids=[str(c) for c in SAMPLE_COMMANDS])
def test_sym_step_concretizes_to_the_legacy_successor(com):
    """Concretizing the symbolic successor reproduces ``resume`` exactly
    (same smart constructors, so structural equality must hold)."""
    sym = sym_step(com)
    reference = next(command_steps(com))
    if reference.is_silent:
        assert sym.op in ("tau", "branch")
        if sym.op == "tau":
            assert concretize(sym.succ, ()) == reference.resume(None)
        return
    # a read hole: feed a couple of values through both sides
    for value in (0, 1, 7):
        if sym.op == "write":
            assert concretize(sym.succ, ()) == reference.resume(None)
            break
        assert concretize(sym.succ, (), read=value) == reference.resume(value)


def test_sym_step_terminated_is_none():
    assert sym_step(skip()) is None


# ----------------------------------------------------------------------
# Postfix expression programs
# ----------------------------------------------------------------------

def test_compile_ops_evaluates_placeholders():
    ops = compile_ops(add(Lit(SymVal(0)), 3))
    assert eval_ops(ops, (4,)) == 7
    assert eval_ops(ops, (0,)) == 3


def test_com_syms_orders_placeholders_by_first_occurrence():
    com = assign("y", add(Lit(SymVal(2)), Lit(SymVal(0))))
    assert com_syms(com) == [SymVal(2), SymVal(0)]


# ----------------------------------------------------------------------
# Thread tables: pcs, keep maps, back edges
# ----------------------------------------------------------------------

def test_lower_thread_simple_write_chain():
    table = lower_thread(seq(assign("x", 1), assign("y", 2)))
    assert table is not None
    entry = table.instrs[table.entry_pc]
    assert entry.kind.value == "wr" and entry.var == "x"
    second = table.instrs[entry.next_pc]
    assert second.kind.value == "wr" and second.var == "y"
    assert second.next_pc == PC_TERM


def test_lower_thread_read_feeds_keep_map():
    """``r := x`` keeps the value read (-1) for the follow-up write."""
    table = lower_thread(assign("r", var("x")))
    assert table is not None
    entry = table.instrs[table.entry_pc]
    assert entry.kind.is_read
    assert -1 in entry.keep  # successor vals take the read value
    succ = table.instrs[entry.next_pc]
    assert succ.kind.value == "wr" and succ.var == "r"
    assert succ.wrops is not None or succ.wrval is not None


def test_lower_thread_loop_has_back_edge():
    """``while x == 0: skip`` re-enters its own read state — the
    lowered table must close the loop with a pc already interned."""
    table = lower_thread(while_(eq(var("x"), 0), skip()))
    assert table is not None
    pcs = range(len(table.instrs))
    reachable_pcs = set()
    for ins in table.instrs:
        if ins.is_branch:
            reachable_pcs.update((ins.then_pc, ins.else_pc))
        else:
            reachable_pcs.add(ins.next_pc)
    assert table.entry_pc in reachable_pcs  # the back edge
    assert all(p == PC_TERM or p in pcs for p in reachable_pcs)


def test_lower_thread_branch_guard_ops():
    table = lower_thread(if_(eq(var("x"), 1), assign("r", 1), assign("r", 2)))
    assert table is not None
    entry = table.instrs[table.entry_pc]
    assert entry.kind.is_read  # the guard's load steps first
    branch = table.instrs[entry.next_pc]
    assert branch.is_branch and branch.guard_ops is not None
    # the guard program decides the arm from the machine word
    from repro.lang.syntax import truthy
    assert truthy(eval_ops(branch.guard_ops, (1,)))
    assert not truthy(eval_ops(branch.guard_ops, (0,)))
    assert branch.then_pc != branch.else_pc


def test_lower_thread_refuses_literal_aliasing():
    """A branch arm holding ``y := ⟨v0⟩`` (from reading ``x``) can
    instantiate to the other arm's literal ``y := 0``.  The compiler
    once refused such a thread; lowering is now total, so it lowers,
    and the two arms stay distinct pcs."""
    com = if_(eq(var("c"), 0), assign("y", 0), assign("y", var("x")))
    table = lower_thread(com)
    assert table is not None
    writes_of_y = [
        pc for pc, ins in enumerate(table.instrs)
        if ins.kind.value == "wr" and ins.var == "y"
    ]
    assert len(writes_of_y) == 2
    program = Program.parallel(com)
    assert type(maybe_lower(program)) is LoweredProgram


# ----------------------------------------------------------------------
# Steps and interning
# ----------------------------------------------------------------------

def test_lowered_steps_are_interned_per_vals():
    table = lower_thread(assign("r", var("x")))
    entry = table.instrs[table.entry_pc]
    assert step_of(entry, ()) is step_of(entry, ())
    succ = table.instrs[entry.next_pc]
    assert step_of(succ, (5,)) is step_of(succ, (5,))
    assert step_of(succ, (5,)) is not step_of(succ, (6,))


def test_lowered_step_action_matches_write_folding():
    """A computed write (``y := v0 + 1``) folds to a constant action."""
    table = lower_thread(assign("y", add(var("x"), 1)))
    entry = table.instrs[table.entry_pc]
    write = table.instrs[entry.next_pc]
    step = step_of(write, (4,))
    assert step.wrval == 5
    action = step.action()
    assert action.kind.value == "wr" and action.wrval == 5


# ----------------------------------------------------------------------
# The entry point
# ----------------------------------------------------------------------

def test_maybe_lower_compiles_when_enabled():
    program = Program.parallel(assign("x", 1), assign("r", var("x")))
    low = maybe_lower(program)
    assert type(low) is LoweredProgram
    assert maybe_lower(low) is low  # idempotent


def test_lowered_dispatch_produces_batched_successors():
    program = Program.parallel(assign("x", 1), assign("r", var("x")))
    model = RAMemoryModel()
    config = initial_configuration(program, {"x": 0, "r": 0}, model)
    assert type(config.program) is LoweredProgram
    steps = successor_list(config, model)
    assert isinstance(steps, list) and steps
    for s in steps:
        assert type(s.target.program) is LoweredProgram
