"""Canonical keys for C11 states and configurations.

Event tags are an artefact of the order in which an execution was
constructed: two interleavings that produce the same events, ``sb``,
``rf`` and ``mo`` differ only in tag numbering.  The semantics never
inspects tags (beyond freshness), so exploration deduplicates states
*up to tag renaming*.

The renaming is canonical because ``sb|_t`` is a strict total order for
every thread (SB-Total): an event is identified by ``(tid, position of
the event in its thread's sb order)``; initialising writes are identified
by their variable.  ``sb`` itself need not be part of the key — for every
state built by ``(D, sb) + e`` it is exactly the canonical shape
(initialisers first, per-thread total order), which the soundness checker
verifies on every reachable state.

The key is one flat tuple of hash-consed nodes (DESIGN.md §4;
:class:`~repro.c11.compact.KeyNode`): the initialising writes'
descriptions (tid 0, sorted by variable), the event chain of each
thread that has events, in tid order, then one ``mo`` identity
sequence per variable, in variable order.  A chain node is ``(parent chain,
description)``; a read's description carries its ``rf`` source's
identity, so ``rf`` needs no part of its own.  Equal keys are the same
nodes, so keys hash and compare in C, by identity.

:func:`canonical_key` is the from-scratch reference derivation.  The
exploration hot path never calls it past the initial state:
``C11State.successor`` and ``PreExecutionState.add_event`` derive a
child's key from its parent's with one chain lookup (plus one ``mo``
lookup for a write), and :func:`repro.engine.keys.cached_canonical_key`
memoizes the key per object.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.c11.compact import ChainNode, SeqNode, intern_node
from repro.c11.events import Event
from repro.c11.prestate import PreExecutionState
from repro.c11.state import C11State

EventKey = Tuple


def _event_ids(state) -> Dict[Event, EventKey]:
    """Map each event to its canonical identity."""
    ids: Dict[Event, EventKey] = {}
    for tid in sorted({e.tid for e in state.events}):
        if tid == 0:
            for e in state.events:
                if e.is_init:
                    ids[e] = ("init", e.var)
            continue
        for pos, e in enumerate(_thread_events(state, tid)):
            ids[e] = ("e", tid, pos)
    return ids


def _thread_events(state, tid) -> Tuple[Event, ...]:
    if isinstance(state, (C11State, PreExecutionState)):
        return state.events_of(tid)
    # Foreign state types: order thread events by tag (tags increase
    # along sb for states built by +, so tag order is sb order).
    mine = sorted((e for e in state.events if e.tid == tid), key=lambda e: e.tag)
    return tuple(mine)


def canonical_key(state) -> tuple:
    """A key identifying the state up to tag renaming.

    Works for both :class:`C11State` (events + rf + mo) and
    :class:`PreExecutionState` (events only, so its key is its chains).

    ``rf`` and ``mo`` come from their *sequence* forms (DESIGN.md §11):
    each read's source from the read→write map, each variable's ``mo``
    as its identity sequence.  States without a compact representation
    derive the same sequences from their relations (``writes_on`` orders
    each variable's writes by mo-predecessor count), so compact-built
    and hand-assembled keys of equal states are the same object; like
    the identity scheme itself, this assumes MO-Valid states (``mo|_x``
    total) whose ``rf`` is functional on reads, which every keyed
    consumer — exploration, candidates, justifications — guarantees.
    """
    ids = _event_ids(state)
    c11 = not isinstance(state, PreExecutionState)
    if c11:
        compact = state.compact if isinstance(state, C11State) else None
        if compact is not None:
            seq = compact.events_seq
            source = {seq[r]: ids[seq[w]] for r, w in compact.rf.items()}
            mo = [tuple(ids[w] for w in ws) for ws in compact.mo.values()]
        else:
            source = {r: ids[w] for w, r in state.rf.pairs}
            mo = [
                tuple(ids[w] for w in state.writes_on(x))
                for x in state.variables()
            ]

    def describe(e: Event) -> Tuple:
        desc = e.described(ids[e])
        return desc + (source.get(e),) if c11 and e.is_read else desc

    key = []
    for tid in sorted({e.tid for e in state.events}):
        if tid == 0:
            inits = sorted(describe(e) for e in state.events if e.is_init)
            key.append(intern_node(SeqNode, tuple(inits)))
            continue
        node = None
        for e in _thread_events(state, tid):
            node = intern_node(ChainNode, (node, describe(e)))
        key.append(node)
    if c11:
        key.extend(intern_node(SeqNode, ids_seq) for ids_seq in sorted(mo))
    return tuple(key)
