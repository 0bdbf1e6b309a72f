"""Parity pins for the unreduced search's hot path (DESIGN.md §5, §12).

The expansion loop keys a configuration's children in one pass and
stores them in a second, reads each thread's pc label from a tuple the
lowered program keeps, and the models read action flags that are
computed once per kind and per interned action.  None of that may move
what a search finds: the counts, outcome sets, frontier peaks and key
cache figures below were read off the search before those changes, and
the label-reading check hooks must say exactly what the per-thread
``pc()`` form says on every configuration.
"""

import itertools

import pytest

from repro.casestudies.peterson import (
    CRITICAL as PETERSON_CRITICAL,
    PETERSON_INIT,
    mutual_exclusion_violations,
    peterson_program,
    peterson_relaxed_flag_read,
)
from repro.casestudies.token_ring import (
    CRITICAL as RING_CRITICAL,
    TOKEN_INIT,
    token_ring_program,
    token_ring_violations,
)
from repro.interp.compiled import maybe_lower
from repro.interp.config import Configuration
from repro.interp.explore import explore
from repro.c11.event_semantics import ra_successors
from repro.interp.ra_model import RAMemoryModel
from repro.lang.actions import FLAGS, Action, ActionKind, intern_action
from repro.lang.syntax import program_counter
from repro.litmus.registry import final_values
from repro.litmus.suite import test_by_name as litmus_by_name

#: (threads, bound, strategy, canonicalize) -> what the search found.
#: Without canonicalisation ring4 b8 reaches 1,601,955 configurations,
#: too many for a unit test, so that leg pins ring3 b7 instead.
PINS = {
    (4, 8, "bfs", True): dict(
        configs=8384, transitions=22833, peak_frontier=1717,
        key_hits=22833, key_misses=1, terminal=1,
    ),
    (4, 8, "dfs", True): dict(
        configs=8384, transitions=22833, peak_frontier=46,
        key_hits=22833, key_misses=1, terminal=1,
    ),
    (3, 7, "bfs", False): dict(
        configs=23383, transitions=41096, peak_frontier=6574,
        key_hits=0, key_misses=0, terminal=12,
    ),
    (3, 7, "dfs", False): dict(
        configs=23383, transitions=41096, peak_frontier=27,
        key_hits=0, key_misses=0, terminal=12,
    ),
}


@pytest.mark.parametrize("threads,bound,strategy,canonicalize", sorted(PINS))
def test_ring_search_is_pinned(threads, bound, strategy, canonicalize):
    result = explore(
        token_ring_program(n_threads=threads), TOKEN_INIT, RAMemoryModel(),
        max_events=bound, check_config=token_ring_violations,
        strategy=strategy, canonicalize=canonicalize,
    )
    stats = result.stats
    found = dict(
        configs=result.configs, transitions=result.transitions,
        peak_frontier=stats.peak_frontier, key_hits=stats.key_hits,
        key_misses=stats.key_misses, terminal=len(result.terminal),
    )
    assert found == PINS[(threads, bound, strategy, canonicalize)]
    outcomes = {tuple(sorted(final_values(c).items())) for c in result.terminal}
    assert outcomes == {(("token", 1),)}
    assert result.truncated and not result.capped
    assert not result.violations


@pytest.mark.parametrize("name", ["SB", "MP+rel-acq", "2+2W", "RMW-exclusive", "SB+rmw"])
def test_model_answers_match_the_reference_enumeration(name):
    """``RAMemoryModel.transitions_list`` builds its answers directly;
    ``ra_successors`` is the rules' reference enumeration.  On every
    configuration a search reaches, for every non-silent pending step,
    both give the same transitions in the same order."""
    test = litmus_by_name(name)
    model = RAMemoryModel()
    compared = 0

    def compare(config):
        nonlocal compared
        state = config.state
        for tid, step in config.program.pending_steps().items():
            if step.is_silent:
                continue
            wrval = step.wrval if step.wrfun is None else step.wrfun
            reference = list(ra_successors(state, tid, step.kind, step.var, wrval))
            state._ra_trans = None  # ask the model afresh
            answers = model.transitions_list(state, tid, step)
            assert [(mt.event, mt.observed) for mt in answers] == [
                (tr.event, tr.observed) for tr in reference
            ]
            assert [mt.read_value for mt in answers] == [
                tr.event.rdval if step.is_read_hole else None for tr in reference
            ]
            assert [model.canonical_state_key(mt.target) for mt in answers] == [
                model.canonical_state_key(tr.target) for tr in reference
            ]
            compared += len(answers)
        return []

    explore(test.program, test.init, model, max_events=6, check_config=compare)
    assert compared


# ----------------------------------------------------------------------
# Action flags
# ----------------------------------------------------------------------

#: The definitional kind sets (Section 2.2 and the event classes of
#: Section 3.1), by flag.
DEFINITION = {
    "is_read": {ActionKind.RD, ActionKind.RDA, ActionKind.UPD},
    "is_write": {ActionKind.WR, ActionKind.WRR, ActionKind.UPD},
    "is_update": {ActionKind.UPD},
    "is_acquire": {ActionKind.RDA, ActionKind.UPD},
    "is_release": {ActionKind.WRR, ActionKind.UPD},
    "is_silent": {ActionKind.TAU},
}


def test_flag_table_covers_every_flag():
    assert set(FLAGS) == set(DEFINITION)


@pytest.mark.parametrize("kind", list(ActionKind))
def test_kind_flags_equal_their_definitional_sets(kind):
    for flag, members in DEFINITION.items():
        assert getattr(kind, flag) is (kind in members), (kind, flag)


def _one_action_per_kind():
    return [
        intern_action(ActionKind.RD, "x", rdval=1),
        intern_action(ActionKind.RDA, "x", rdval=1),
        intern_action(ActionKind.WR, "x", wrval=2),
        intern_action(ActionKind.WRR, "x", wrval=2),
        intern_action(ActionKind.UPD, "x", rdval=1, wrval=2),
        Action(ActionKind.TAU),
    ]


@pytest.mark.parametrize("action", _one_action_per_kind(), ids=str)
def test_action_flags_equal_their_definitional_sets(action):
    for flag, members in DEFINITION.items():
        assert vars(action)[flag] is (action.kind in members), (action, flag)


def test_interned_actions_hash_and_compare_as_values():
    a = intern_action(ActionKind.UPD, "x", rdval=1, wrval=2)
    assert intern_action(ActionKind.UPD, "x", rdval=1, wrval=2) is a
    fresh = Action(ActionKind.UPD, "x", 1, 2)
    assert fresh == a and hash(fresh) == hash(a)
    assert hash(a) == hash((a.kind, a.var, a.rdval, a.wrval))


# ----------------------------------------------------------------------
# pc labels and the check hooks that read them
# ----------------------------------------------------------------------


def _ring_by_pc(config):
    inside = [t for t in config.program.tids if config.pc(t) == RING_CRITICAL]
    if len(inside) > 1:
        return [f"mutual-exclusion: threads {inside} all at line {RING_CRITICAL}"]
    return []


def _peterson_by_pc(config):
    if config.pc(1) == PETERSON_CRITICAL and config.pc(2) == PETERSON_CRITICAL:
        return ["mutual-exclusion: pc1 = pc2 = 5"]
    return []


def _labels_by_ast(program):
    return tuple(program_counter(program.command(t)) for t in program.tids)


CASES = {
    "ring4": (token_ring_program(n_threads=4), TOKEN_INIT,
              token_ring_violations, _ring_by_pc),
    "peterson": (peterson_program(), PETERSON_INIT,
                 mutual_exclusion_violations, _peterson_by_pc),
    "peterson-relaxed-flag-read": (peterson_relaxed_flag_read(), PETERSON_INIT,
                                   mutual_exclusion_violations, _peterson_by_pc),
}
# (No b8 configuration violates mutual exclusion, so the violating
# messages are compared on synthesised machine states below.)


@pytest.mark.parametrize("name", sorted(CASES))
def test_label_hooks_agree_with_per_thread_pcs_on_every_config(name):
    program, init, hook, by_pc = CASES[name]
    seen = []

    def both(config):
        messages = hook(config)
        assert messages == by_pc(config)
        assert config.program.labels == _labels_by_ast(config.program)
        seen.append(bool(messages))
        return messages

    result = explore(program, init, RAMemoryModel(), max_events=8, check_config=both)
    assert len(seen) == result.configs


@pytest.mark.parametrize("name", sorted(CASES))
def test_label_hooks_agree_on_every_machine_state(name):
    """Every combination of the thread states a b8 search reaches,
    violating combinations included."""
    program, init, hook, by_pc = CASES[name]
    lowered = maybe_lower(program)
    explore(lowered, init, RAMemoryModel(), max_events=8)
    per_thread = [set() for _ in lowered.pcs]
    for pcs in list(lowered.table.programs):
        for slot, thread_state in enumerate(pcs):
            per_thread[slot].add(thread_state)
    state = RAMemoryModel().initial(init)
    flagged = 0
    for pcs in itertools.product(*map(sorted, per_thread)):
        config = Configuration(lowered.table.program(pcs), state)
        assert hook(config) == by_pc(config), pcs
        assert config.program.labels == _labels_by_ast(config.program)
        flagged += bool(by_pc(config))
    assert flagged
