"""Hash-consed canonical keys (DESIGN.md §4).

A canonical key is a flat tuple of interned nodes: one event chain per
thread, one ``mo`` identity sequence per variable.  These tests pin
that the node form partitions states exactly as the sorted
``(events, rf, mo)`` description does, that equal keys share their
nodes, and that nodes survive pickling and leave the intern table when
their search is dropped.
"""

import gc
import pickle

import pytest

from repro.c11.compact import ChainNode, SeqNode, intern_node, interned_nodes
from repro.c11.prestate import PreExecutionState
from repro.c11.state import C11State
from repro.casestudies.token_ring import TOKEN_INIT, token_ring_program
from repro.interp.canon import canonical_key
from repro.interp.explore import explore
from repro.interp.pe_model import PEMemoryModel
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sra_model import SRAMemoryModel
from repro.lang.builder import assign, faa, seq, var
from repro.lang.program import Program
from repro.litmus.extra import EXTRA_TESTS
from repro.litmus.suite import ALL_TESTS

REGISTRY = list(ALL_TESTS) + list(EXTRA_TESTS)

#: Reads that can take one value from several writes: states that
#: differ in ``rf`` (or in ``mo``) alone, which the registry's programs
#: always tell apart by a value as well.
SAME_VALUE = [
    (
        Program.parallel(
            assign("x", 1), assign("x", 1),
            seq(assign("r", var("x")), assign("s", var("x"))),
        ),
        {"x": 0, "r": 0, "s": 0},
    ),
    (
        Program.parallel(
            seq(assign("x", 1), assign("x", 1)),
            seq(faa("x", 0, "r"), assign("s", var("x"))),
        ),
        {"x": 1, "r": 0, "s": 0},
    ),
]


def _description(state):
    """The sorted ``(events, rf, mo)`` description of ``state``, built
    from its relations alone: events described under their canonical
    identities, ``rf`` as identity pairs, ``mo`` as per-variable
    identity sequences (a pre-execution has only the first part)."""
    if isinstance(state, PreExecutionState):
        rel = PreExecutionState(state.events, state.sb)
    else:
        rel = C11State(state.events, state.sb, state.rf, state.mo)
    ids = {e: ("init", e.var) for e in rel.events if e.is_init}
    for tid in {e.tid for e in rel.events if not e.is_init}:
        for pos, e in enumerate(rel.events_of(tid)):
            ids[e] = ("e", tid, pos)
    events = tuple(sorted(e.described(ids[e]) for e in rel.events))
    if isinstance(rel, PreExecutionState):
        return (events,)
    rf = tuple(sorted((ids[w], ids[r]) for w, r in rel.rf.pairs))
    mo = tuple(sorted(
        tuple(ids[w] for w in rel.writes_on(x)) for x in rel.variables()
    ))
    return (events, rf, mo)


def _reached_states(program, init, model, max_events):
    """Every state the search reaches, duplicates included: the initial
    state and the target of every transition it takes."""
    states = []
    result = explore(
        program, init, model, max_events=max_events,
        check_step=lambda step: states.append(step.target_state) or [],
    )
    states.append(result.initial.state)
    return list({id(s): s for s in states}.values())


def _assert_partition(states, model):
    """Keys are equal exactly when descriptions are, and equal keys are
    made of the same node objects."""
    key_of_desc = {}
    desc_of_key = {}
    for state in states:
        key = model.canonical_state_key(state)
        desc = _description(state)
        first = key_of_desc.setdefault(desc, key)
        assert all(a is b for a, b in zip(first, key)), desc
        assert desc_of_key.setdefault(key, desc) == desc
    assert len(key_of_desc) == len(desc_of_key)
    return len(key_of_desc)


@pytest.mark.parametrize("model_factory", [RAMemoryModel, SRAMemoryModel])
def test_registry_keys_partition_like_descriptions(model_factory):
    classes = 0
    for test in REGISTRY:
        model = model_factory()
        states = _reached_states(
            test.program, test.init, model, test.max_events
        )
        classes += _assert_partition(states, model)
    assert classes > len(REGISTRY)


@pytest.mark.parametrize("model_factory", [RAMemoryModel, SRAMemoryModel])
@pytest.mark.parametrize("index", range(len(SAME_VALUE)))
def test_same_value_keys_partition_like_descriptions(model_factory, index):
    program, init = SAME_VALUE[index]
    model = model_factory()
    states = _reached_states(program, init, model, None)
    merged = {}
    for state in states:  # classes the key would merge without rf/mo
        events = _description(state)[0]
        merged.setdefault(events, set()).add(_description(state))
    assert any(len(descs) > 1 for descs in merged.values())
    _assert_partition(states, model)


def test_pre_execution_keys_partition_like_descriptions():
    classes = 0
    for test in ALL_TESTS:
        model = PEMemoryModel.for_program(test.program, test.init)
        states = _reached_states(test.program, test.init, model, 4)
        classes += _assert_partition(states, model)
    assert classes > len(ALL_TESTS)


def test_ring4_b8_keys_partition_like_descriptions():
    model = RAMemoryModel()
    states = _reached_states(token_ring_program(n_threads=4), TOKEN_INIT,
                             model, 8)
    assert _assert_partition(states, model) == 1329


def test_key_layout_is_chains_then_mo_sequences():
    """The initialising writes, one chain per thread with events, then
    one ``mo`` sequence per variable; a read's description ends with its
    source's identity."""
    test = ALL_TESTS[0]  # SB: two threads, each reading the other's write
    result = explore(test.program, test.init, RAMemoryModel(),
                     max_events=test.max_events)
    state = result.terminal[0].state
    key = canonical_key(state)
    variables = sorted(state.variables())
    assert [type(n) for n in key] == (
        [SeqNode] + [ChainNode] * 2 + [SeqNode] * len(variables)
    )
    assert [d[:2] for d in key[0].content] == [("init", x) for x in variables]
    reads = 0
    for tid, node in enumerate(key[1:3], 1):
        for pos, (e, *desc) in enumerate(node.descriptions()):
            assert (e, desc[0], desc[1]) == ("e", tid, pos)
            if len(desc) == 7:  # a read: its source's identity last
                assert desc[-1][0] in ("init", "e")
                reads += 1
            else:
                assert len(desc) == 6
    assert reads == 2
    for node, x in zip(key[3:], variables):
        assert node.content[0] == ("init", x)


def test_a_long_chain_pickles_without_deep_recursion():
    """A thread chain pickles one recursion level per 64 events, so a
    chain far longer than the interpreter's recursion limit round-trips
    to the live node."""
    node = None
    for pos in range(5000):
        desc = ("e", 1, pos, "W", "x", None, pos)
        node = intern_node(ChainNode, (node, desc))
    assert pickle.loads(pickle.dumps(node)) is node
    assert len(node.descriptions()) == 5000


def test_pickled_key_loads_as_the_live_nodes():
    test = ALL_TESTS[0]
    result = explore(test.program, test.init, RAMemoryModel(),
                     max_events=test.max_events)
    for _program, key in result.parents:
        loaded = pickle.loads(pickle.dumps(key))
        assert loaded == key
        assert all(a is b for a, b in zip(loaded, key))
        for node in key:
            assert pickle.loads(pickle.dumps(node)) is node


def test_a_key_pickled_after_its_nodes_died_is_interned_again():
    """A key that outlives its nodes (a checkpoint, another process)
    loads as new nodes, which the next search's keys then share."""
    test = ALL_TESTS[0]

    def run():
        return explore(test.program, test.init, RAMemoryModel(),
                       max_events=test.max_events)

    blob = pickle.dumps(list(run().parents))
    gc.collect()
    loaded = pickle.loads(blob)
    again = run()
    for key in loaded:
        assert key in again.parents
        live = next(k for k in again.parents if k == key)
        assert all(a is b for a, b in zip(live[1], key[1]))


def test_intern_table_drains_when_the_search_is_dropped():
    gc.collect()
    baseline = interned_nodes()
    result = explore(
        token_ring_program(n_threads=4), TOKEN_INIT, RAMemoryModel(),
        max_events=6,
    )
    assert interned_nodes() > baseline
    del result
    gc.collect()
    assert interned_nodes() == baseline
