"""The step tables against the reference semantics (DESIGN.md §12).

Every program is explored through its compiled step tables; the AST
semantics of ``repro.lang.semantics`` is the reference they must agree
with.  The check is local: at every configuration the lowered search
reaches (deduplicated by the canonical key), the reference
``program_steps`` of the concretized program must offer the same
threads as ``pending_steps()``, and for each thread the table's
transitions must match the reference step's transitions — the same
multiset of ``(event, observed, read value, target state, target
command)``, where the reference target command is ``resume(read
value)``.  Each step's ``control_visible`` bit must say exactly whether
the thread's ``(pc label, terminated)`` signature changes.

Inputs: the litmus registry under SC/RA/SRA, the case studies (each
explored unreduced and under the reductions, whose searches step single
threads and read ``control_visible``), the pre-execution model at a
small bound, and the five generated programs
whose threads the compiler used to refuse (a read value could alias a
source literal), with their outcome sets pinned.
"""

import pickle
from collections import Counter

import pytest

from repro.engine.core import _key_of
from repro.engine.parallel import CASE_STUDIES, _case_study_setup
from repro.fuzz.generator import PROFILES, generate_case
from repro.interp.compiled import LoweredProgram, lowered_table, maybe_lower
from repro.interp.explore import explore
from repro.interp.interpreter import thread_successor_list
from repro.interp.pe_model import PEMemoryModel
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.interp.sra_model import SRAMemoryModel
from repro.lang.builder import assign, eq, faa, if_, seq, var
from repro.lang.lower import PC_TERM
from repro.lang.program import Program, program_steps
from repro.lang.syntax import Skip, program_counter
from repro.litmus.extra import EXTRA_TESTS
from repro.litmus.registry import final_values
from repro.litmus.suite import ALL_TESTS

MODELS = {"ra": RAMemoryModel, "sra": SRAMemoryModel, "sc": SCMemoryModel}
REGISTRY = list(ALL_TESTS) + list(EXTRA_TESTS)


def _signature(com):
    return (program_counter(com), isinstance(com, Skip))


def reached_configurations(result):
    """One configuration per key the search reached, rebuilt from its
    parent map: each recorded hop replays from any configuration with
    the parent key.  Unlike a collecting ``check_config`` hook, this
    leaves the search untouched (under ``optimal`` a hook switches on
    control tracking)."""
    model = result._model
    children = {}
    for key, (parent, tid) in result.parents.items():
        if parent is not None:
            children.setdefault(parent, []).append((tid, key))
    root = _key_of(result.initial, model, result._canonicalize)
    reached = [result.initial]
    stack = [(result.initial, root)]
    while stack:
        config, key = stack.pop()
        for tid, child in children.get(key, ()):
            pending = config.program.pending_steps()[tid]
            target = next(
                step.target
                for step in thread_successor_list(config, model, tid, pending)
                if _key_of(step.target, model, result._canonicalize) == child
            )
            reached.append(target)
            stack.append((target, child))
    assert len(reached) == len(result.parents)
    return reached


def reference_mismatches(program, init, model, max_events=None, **explore_kwargs):
    """Explore ``program`` lowered; describe every configuration where
    the tables disagree with the reference semantics (empty = none)."""
    result = explore(
        program, init, model, max_events=max_events, max_configs=50_000,
        **explore_kwargs,
    )
    assert not result.capped, "reference check needs the whole space"
    problems = []
    for config in reached_configurations(result):
        lowered = config.program
        pending = lowered.pending_steps()
        reference = dict(program_steps(lowered.source_program()))
        if set(reference) != set(pending):
            problems.append(
                f"{lowered}: threads {sorted(pending)} vs reference "
                f"{sorted(reference)}"
            )
            continue
        for tid, ref in reference.items():
            step = pending[tid]
            current = _signature(lowered.command(tid))
            got = Counter(
                (s.event, s.observed, s.read_value,
                 model.canonical_state_key(s.target.state),
                 s.target.program.command(tid))
                for s in thread_successor_list(config, model, tid, step)
            )
            if ref.is_silent:
                targets = [(None, None, None, config.state)]
            else:
                targets = [
                    (mt.event, mt.observed, mt.read_value, mt.target)
                    for mt in model.transitions_list(config.state, tid, ref)
                ]
            want = Counter(
                (event, observed, value, model.canonical_state_key(state),
                 ref.resume(value))
                for event, observed, value, state in targets
            )
            if got != want:
                problems.append(f"{lowered}: thread {tid} steps differ")
            for *_, command in want:
                if step.control_visible != (_signature(command) != current):
                    problems.append(
                        f"{lowered}: thread {tid} control_visible is "
                        f"{step.control_visible}"
                    )
    return problems


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("reduction", ["none", "optimal"])
def test_litmus_registry_lowering_parity(model_name, reduction):
    """Every registry test, at every configuration the search under
    ``reduction`` reaches (the reduced searches step single threads
    and read ``control_visible``)."""
    for test in REGISTRY:
        problems = reference_mismatches(
            test.program, test.init, MODELS[model_name](), test.max_events,
            reduction=reduction,
        )
        assert not problems, f"{test.name} [{model_name}/{reduction}]: {problems[:3]}"


@pytest.mark.parametrize("name", sorted(CASE_STUDIES))
@pytest.mark.parametrize("reduction", ["none", "optimal"])
def test_case_study_lowering_parity(name, reduction):
    program, init, check, bound = _case_study_setup(name)
    problems = reference_mismatches(
        program, init, RAMemoryModel(), bound, reduction=reduction,
        check_config=check,
    )
    assert not problems, problems[:3]


PE_PROGRAMS = [
    (
        "sb",
        Program.parallel(
            seq(assign("x", 1), assign("a", var("y"))),
            seq(assign("y", 1), assign("b", var("x"))),
        ),
        {"x": 0, "y": 0, "a": 0, "b": 0},
    ),
    (
        "faa-race",
        Program.parallel(faa("c", 1, "r0"), faa("c", 1, "r1")),
        {"c": 0, "r0": 0, "r1": 0},
    ),
]


@pytest.mark.parametrize(
    "name,program,init", PE_PROGRAMS, ids=[p[0] for p in PE_PROGRAMS]
)
def test_pe_model_lowering_parity(name, program, init):
    """Pre-executions enumerate read holes over a finite domain."""
    model = PEMemoryModel.for_program(program, init)
    assert not reference_mismatches(program, init, model, max_events=6)


# ----------------------------------------------------------------------
# The generated programs the compiler used to refuse
# ----------------------------------------------------------------------

#: Outcome sets of the five programs under SC/RA/SRA, as the AST walker
#: computed them before lowering became total.  Every model agrees on
#: each program, so one set per program pins all three.
FORMERLY_REFUSED = {
    ("default", 1, 111): {
        (("x", 0), ("y", 1), ("z", 0)),
        (("x", 2), ("y", 1), ("z", 0)),
    },
    ("default", 2, 397): {(("x", 0), ("y", 0), ("z", 1))},
    ("small", 0, 294): {(("x", 1), ("y", 1))},
    ("wide", 1, 234): {
        (("y", 0), ("z", 0)),
        (("y", 0), ("z", 1)),
        (("y", 1), ("z", 0)),
        (("y", 1), ("z", 1)),
    },
    ("wide", 2, 462): {(("x", 1), ("y", 0), ("z", 1))},
}


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize(
    "profile,seed,index", sorted(FORMERLY_REFUSED),
    ids=[f"{p}_s{s}_i{i}" for p, s, i in sorted(FORMERLY_REFUSED)],
)
def test_formerly_refused_program(profile, seed, index, model_name):
    case = generate_case(seed, index, PROFILES[profile])
    model = MODELS[model_name]()
    max_events = case.events_hint + 1
    result = explore(case.program, case.init, model, max_events=max_events)
    assert not result.truncated
    outcomes = {tuple(sorted(final_values(c).items())) for c in result.terminal}
    assert outcomes == FORMERLY_REFUSED[(profile, seed, index)]
    assert not reference_mismatches(case.program, case.init, model, max_events)


def test_maybe_lower_lowers_a_read_aliasing_a_literal():
    """The else arm's ``x := ⟨v0⟩`` (after reading ``y``) can
    instantiate to the then arm's literal ``x := 1``: the two stay
    distinct machine states, and the program lowers."""
    program = Program.parallel(if_(var("y"), assign("x", 1), assign("x", var("y"))))
    assert type(maybe_lower(program)) is LoweredProgram


def test_unlowerable_program_falls_back_to_the_walker():
    """The program the compiler once refused (literal aliasing), which
    used to explore through the AST walker: no walker is left, so it
    lowers and its tables agree with the reference semantics, with the
    outcome set the walker produced."""
    tricky = if_(eq(var("c"), 0), assign("y", 0), assign("y", var("x")))
    program = Program.parallel(tricky, assign("x", 1))
    assert type(maybe_lower(program)) is LoweredProgram
    init = {"c": 0, "x": 0, "y": 0}
    result = explore(program, init, RAMemoryModel())
    outcomes = {tuple(sorted(final_values(c).items())) for c in result.terminal}
    assert outcomes == {
        (("c", 0), ("x", 1), ("y", 0)),
    }
    assert not reference_mismatches(program, init, RAMemoryModel())


# ----------------------------------------------------------------------
# The check catches a broken table
# ----------------------------------------------------------------------

def _two_read_program():
    """Thread 1 reads ``y`` then ``z`` into one guard."""
    return Program.parallel(
        if_(eq(var("y"), var("z")), assign("a", 1), assign("a", 2)),
        assign("y", 1),
    )


TWO_READ_INIT = {"a": 0, "y": 0, "z": 1}


def _second_read(program):
    """The instruction of thread 1 reading ``z`` (keep map ``(0, -1)``)."""
    (instr,) = [
        ins for ins in lowered_table(program).threads[0]
        if ins.var == "z" and ins.kind.is_read
    ]
    return instr


def test_the_reference_check_passes_on_the_canary_program():
    program = _two_read_program()
    assert not reference_mismatches(program, TWO_READ_INIT, RAMemoryModel())


def test_a_corrupted_next_pc_fails_the_reference_check():
    program = _two_read_program()
    _second_read(program).next_pc = PC_TERM
    assert reference_mismatches(program, TWO_READ_INIT, RAMemoryModel())


def test_a_corrupted_keep_map_fails_the_reference_check():
    program = _two_read_program()
    instr = _second_read(program)
    assert instr.keep == (0, -1)
    instr.keep = (-1, -1)
    assert reference_mismatches(program, TWO_READ_INIT, RAMemoryModel())


def test_lowered_program_pickle_round_trip():
    """``LoweredProgram.__reduce__`` ships the source, re-lowered on
    load where its table is not alive — the suite runner sends programs
    to worker processes (in process, the load is the interned object:
    ``tests/test_interning.py``)."""
    program = Program.parallel(
        seq(assign("x", 1), assign("a", var("y"))),
        seq(assign("y", 1), assign("b", var("x"))),
    )
    low = maybe_lower(program)
    assert type(low) is LoweredProgram
    clone = pickle.loads(pickle.dumps(low))
    assert type(clone) is LoweredProgram
    assert clone == low
    init = {"x": 0, "y": 0, "a": 0, "b": 0}
    a = explore(low.table.source, init, RAMemoryModel())
    b = explore(clone.table.source, init, RAMemoryModel())
    assert a.configs == b.configs and a.transitions == b.transitions
