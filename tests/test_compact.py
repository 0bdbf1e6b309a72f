"""The compact derived-order engine vs the definitional closures.

DESIGN.md §11's contract, property-tested: on every state the
exploration can reach, the incremental representation — interned
indices, sequence-backed ``sb``/``mo``, the ``rf`` int map, bitmask
``hb``/``eco``, the carried tag tables — must agree with the
definitional relation algebra recomputed from scratch.  The comparison
itself lives in :func:`repro.c11.compact.derived_order_divergences`
(shared with the ``repro fuzz --check-orders`` oracle); these tests
drive it over fuzz-generated programs under every event-based model,
and pin the engine-level guarantees (propagated canonical keys, O(1)
tag lookups) separately.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.c11.compact import CompactOrders, derived_order_divergences
from repro.c11.events import Event
from repro.c11.state import C11State, initial_state
from repro.engine.keys import cached_canonical_key
from repro.fuzz.generator import PROFILES, generate_case
from repro.interp.canon import canonical_key
from repro.interp.explore import explore, reachable_states
from repro.interp.pe_model import PEMemoryModel
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sra_model import SRAMemoryModel, sra_consistent
from repro.lang.actions import rd, rda, upd, wr, wrr
from repro.lang.builder import assign, seq, var
from repro.lang.program import Program
from repro.litmus.suite import ALL_TESTS


# ----------------------------------------------------------------------
# Hypothesis: incremental derivations equal the definitional closures
# on every reachable state of fuzz-generated programs
# ----------------------------------------------------------------------


def _explored_states(seed: int, index: int, model_factory):
    case = generate_case(seed, index, PROFILES["small"])
    states, _result = reachable_states(
        case.program, case.init, model_factory(),
        max_events=case.events_hint + 1, max_configs=2000,
    )
    return states


@settings(max_examples=15, deadline=None)
@given(index=st.integers(0, 400))
def test_compact_orders_match_definitional_closures_ra(index):
    for state in _explored_states(7, index, RAMemoryModel):
        assert derived_order_divergences(state) == []


@settings(max_examples=8, deadline=None)
@given(index=st.integers(0, 400))
def test_compact_orders_match_definitional_closures_sra(index):
    for state in _explored_states(11, index, SRAMemoryModel):
        assert derived_order_divergences(state) == []
        # the SRA filter itself must agree with the materialised union
        assert sra_consistent(state) == (
            state.sb | state.rf | state.mo
        ).is_acyclic()


@settings(max_examples=8, deadline=None)
@given(index=st.integers(0, 400))
def test_pe_prestate_sequences_match_relations(index):
    """Sequence-backed pre-executions materialise the same ``sb`` (and
    key identically) as relation-built replays of the same events."""
    case = generate_case(13, index, PROFILES["small"])
    model = PEMemoryModel.for_program(case.program, case.init)
    states, _ = reachable_states(
        case.program, case.init, model,
        max_events=min(case.events_hint, 4), max_configs=500,
    )
    for state in states:
        from repro.c11.prestate import PreExecutionState

        clone = PreExecutionState(state.events, state.sb)
        assert clone == state
        assert canonical_key(clone) == canonical_key(state)
        assert state.next_tag() == clone.next_tag()
        for e in state.events:
            assert state.event_by_tag(e.tag) is e


def test_compact_and_relational_states_share_canonical_keys():
    """A compact-built state and a hand-assembled relational twin key
    identically — the cross-representation property the axiomatic
    integration (E3) relies on."""
    states, _res = reachable_states(
        Program.parallel(
            seq(assign("x", 1), assign("r", var("y"))),
            seq(assign("y", 1), assign("r2", var("x"))),
        ),
        {"x": 0, "y": 0, "r": 0, "r2": 0},
        RAMemoryModel(),
    )
    for state in states:
        clone = C11State(
            state.events, state.sb, state.rf, state.mo, state.fast_eco
        )
        assert clone._compact is None  # hand-assembled: relational path
        assert state == clone and clone == state
        assert hash(state) == hash(clone)
        assert canonical_key(state) == canonical_key(clone)


# ----------------------------------------------------------------------
# Tag tables and sequence-backed indices
# ----------------------------------------------------------------------


def test_event_by_tag_and_next_tag_carried_forward():
    state = initial_state({"x": 0, "y": 0})
    assert state.next_tag() == 1
    e1 = Event(1, wr("x", 5), 1)
    s1 = state.successor(e1, state.last("x"))
    assert s1.compact is not None
    assert s1.next_tag() == 2
    assert s1.event_by_tag(1) is e1
    with pytest.raises(KeyError):
        s1.event_by_tag(99)
    # replayed (non-minimal) tags advance the carried counter past them
    e7 = Event(7, wr("y", 1), 2)
    s2 = s1.successor(e7, s1.last("y"))
    assert s2.compact is not None
    assert s2.next_tag() == 8
    assert s2.event_by_tag(7) is e7
    # an unused tag below the counter stays on the compact path
    e3 = Event(3, rd("y", 1), 1)
    s3 = s2.successor(e3, e7)
    assert s3.compact is not None and s3.next_tag() == 8
    # duplicate tags are rejected exactly as before
    with pytest.raises(ValueError):
        s3.successor(Event(7, wr("x", 1), 1), e1)


def test_event_by_tag_on_relational_states_is_cached():
    state = C11State([Event(1, wr("x", 0), 0), Event(2, rd("x", 0), 1)])
    assert state.event_by_tag(2).tid == 1
    assert state._by_tag is not None  # built once, reused
    with pytest.raises(KeyError):
        state.event_by_tag(3)


def test_writes_on_and_events_of_read_the_sequences():
    state = initial_state({"x": 0})
    init = state.last("x")
    w1 = Event(1, wrr("x", 1), 1)
    s = state.successor(w1, init)
    u = Event(2, upd("x", 1, 2), 2)
    s = s.successor(u, w1)
    r = Event(3, rda("x", 2), 1)
    s = s.successor(r, u)
    assert s.compact is not None  # else the checks below are vacuous
    assert s.writes_on("x") == (init, w1, u)
    assert s.events_of(1) == (w1, r)
    assert s.events_of(2) == (u,)
    assert s.events_of(0) == (init,)
    assert s.last("x") is u
    # and the whole construction chain agrees with the definitions
    assert derived_order_divergences(s) == []


# ----------------------------------------------------------------------
# Incremental canonical keys
# ----------------------------------------------------------------------


def test_propagated_keys_match_fresh_derivation_along_rf_mo_edits():
    """`successor` derives the child's key from its parent's; wiping
    the cache and re-deriving must give the same nodes after every
    Write and RMW step."""
    state = initial_state({"x": 0})
    # prime the key, as exploration does
    state._canon_key = canonical_key(state)
    init = state.last("x")
    w = Event(1, wrr("x", 1), 1)
    s1 = state.successor(w, init)
    u = Event(2, upd("x", 1, 3), 2)
    s2 = s1.successor(u, w)
    for s in (s1, s2):
        assert s.compact is not None  # else the key was not derived
        propagated = s._canon_key
        assert propagated is not None, "key was not propagated"
        s._canon_key = None
        fresh = canonical_key(s)
        assert fresh == propagated
        assert all(a is b for a, b in zip(fresh, propagated))


def _definitional_successor(state, e, w):
    """The paper's constructors chained: ``(D, sb) + e``, then the rf
    edge when ``e`` reads and the ``mo[w, e]`` splice when it writes."""
    child = state.add_event(e)
    if e.is_read:
        child = child.with_rf(w, e)
    if e.is_write:
        child = child.insert_mo_after(w, e)
    return child


@pytest.mark.parametrize("model_factory", [RAMemoryModel, SRAMemoryModel])
def test_successor_matches_the_definitional_chain(model_factory):
    """At every configuration the litmus registry reaches, every Read,
    Write and RMW transition's ``successor(e, w)`` equals — and keys
    identically to — the paper's constructors chained on the
    relation-only clone.  The key is read before the child is built:
    the key derivation reads the parent alone.  (SRA's filter builds every
    child it tests, so only RA's children are still deferred here.)"""
    model = model_factory()
    checked = 0

    def check(config):
        nonlocal checked
        state = config.state
        model.drop_memo(state)  # build the lists afresh from a keyed parent
        cached_canonical_key(state)
        clone = C11State(
            state.events, state.sb, state.rf, state.mo,
            fast_eco=state.fast_eco,
        )
        for tid, step in config.program.pending_steps().items():
            if step.is_silent:
                continue
            for mt in model.transitions_list(state, tid, step):
                ref = _definitional_successor(clone, mt.event, mt.observed)
                target = mt.target
                deferred = target._pending is not None
                assert deferred or model_factory is SRAMemoryModel
                assert cached_canonical_key(target) == canonical_key(ref)
                assert (target._pending is not None) == deferred  # unbuilt
                assert target.compact is not None
                assert target == ref
                checked += 1
        return []

    for test in ALL_TESTS:
        explore(
            test.program, test.init, model,
            max_events=test.max_events, check_config=check,
        )
    assert checked


# ----------------------------------------------------------------------
# CompactOrders unit behaviour
# ----------------------------------------------------------------------


def test_compact_guards_fall_back_to_none():
    state = initial_state({"x": 0, "y": 0})
    c = state.compact
    assert isinstance(c, CompactOrders)
    init_x, init_y = state.last("x"), state.last("y")
    # both give the observed write's mo position; a write is spliced
    # right after it, and a read's key description names it
    assert c.placement(Event(6, rd("x", 0), 1), init_x) == 0
    assert c.placement(Event(6, wr("x", 1), 1), init_x) == 0
    # appending an initialising write is outside the incremental form
    assert c.placement(Event(-9, wr("z", 0), 0), init_x) is None
    # an unindexed observed write cannot be rf/mo-linked
    stranger = Event(5, wr("x", 0), 1)
    assert c.placement(Event(6, rd("x", 0), 1), stranger) is None
    # a write must splice after, and a read observe, a write of its
    # own variable's mo
    assert c.placement(Event(6, wr("x", 1), 1), init_y) is None
    assert c.placement(Event(6, rd("x", 0), 1), init_y) is None
    # a tag below the counter that is already used
    s1 = state.successor(Event(1, wr("x", 1), 1), init_x)
    assert s1.compact.placement(Event(1, rd("y", 0), 2), init_y) is None
    # successor takes the definitional chain for a shape placement declines
    assert state.successor(Event(6, wr("x", 1), 1), init_y).compact is None


def test_a_deferred_state_pickles_built():
    """Checkpoints and shard routing pickle frontier states: a deferred
    successor crosses the boundary built, and compares equal."""
    state = initial_state({"x": 0, "y": 0})
    cached_canonical_key(state)
    w = Event(1, wrr("x", 1), 1)
    child = state.successor(w, state.last("x")).successor(
        Event(2, rda("x", 1), 2), w
    )
    assert child._pending is not None  # keyed, not yet built
    copy = pickle.loads(pickle.dumps(child))
    assert child._pending is None  # pickling built it
    assert copy.compact.index == child.compact.index
    assert copy == child and child == copy
    assert canonical_key(copy) == cached_canonical_key(child)
    assert derived_order_divergences(copy) == []


def test_order_timer_accumulates_into_engine_stats():
    result = explore(
        Program.parallel(
            seq(assign("x", 1), assign("r", var("y"))),
            seq(assign("y", 1), assign("r2", var("x"))),
        ),
        {"x": 0, "y": 0, "r": 0, "r2": 0},
        RAMemoryModel(),
    )
    assert result.stats.time_orders > 0.0
    assert result.stats.time_orders <= result.stats.time_total
    assert "orders=" in result.stats.summary()
