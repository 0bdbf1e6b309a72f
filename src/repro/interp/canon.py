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

Memoization (DESIGN.md §4): the event-identity map is cached on the
state object (``_canon_ids``) and *propagated incrementally* — appending
an event via ``(D, sb) + e`` places it sb-last in its thread, so the
child's identity map is the parent's plus one entry, and adding ``rf`` /
``mo`` edges changes no identities at all.  ``C11State.successor`` (and
the definitional ``add_event`` / ``with_rf`` / ``insert_mo_after``)
exploit exactly this, which removes the dominant cost of keying from
the exploration hot path.  The final
key is additionally memoized per object by
:func:`repro.engine.keys.cached_canonical_key`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.c11.events import Event
from repro.c11.prestate import PreExecutionState
from repro.c11.state import C11State

EventKey = Tuple


def _event_ids(state) -> Dict[Event, EventKey]:
    """Map each event to its canonical identity (cached on the state)."""
    cached = getattr(state, "_canon_ids", None)
    if cached is not None:
        return cached
    ids: Dict[Event, EventKey] = {}
    tids = sorted({e.tid for e in state.events})
    for tid in tids:
        if tid == 0:
            for e in state.events:
                if e.is_init:
                    ids[e] = ("init", e.var)
            continue
        for pos, e in enumerate(_thread_events(state, tid)):
            ids[e] = ("e", tid, pos)
    try:
        state._canon_ids = ids
    except AttributeError:  # foreign state types without the slot
        pass
    return ids


def _thread_events(state, tid) -> Tuple[Event, ...]:
    if isinstance(state, (C11State, PreExecutionState)):
        return state.events_of(tid)
    # Foreign state types: order thread events by tag (tags increase
    # along sb for states built by +, so tag order is sb order).
    mine = sorted((e for e in state.events if e.tid == tid), key=lambda e: e.tag)
    return tuple(mine)


def canonical_key(state) -> Hashable:
    """A hashable key identifying the state up to tag renaming.

    Works for both :class:`C11State` (events + rf + mo) and
    :class:`PreExecutionState` (events only).

    ``rf`` and ``mo`` are encoded from their *sequence* forms
    (DESIGN.md §11): ``rf`` as the sorted identity pairs of its
    read→write map, ``mo`` as the sorted tuple of per-variable identity
    sequences — no O(n²) pair-set detour.  States without a compact
    representation derive the same sequences from their relations
    (``writes_on`` orders each variable's writes by mo-predecessor
    count), so compact-built and hand-assembled encodings of equal
    states coincide; like the identity scheme itself, this assumes
    MO-Valid states (``mo|_x`` total), which every keyed consumer
    — exploration, candidates, justifications — guarantees.
    """
    ids = _event_ids(state)

    def describe(e: Event) -> Tuple:
        return e.described(ids[e])

    events_part = tuple(sorted(describe(e) for e in state.events))
    if isinstance(state, PreExecutionState):
        return (events_part,)
    compact = state.compact if isinstance(state, C11State) else None
    if compact is not None:
        seq = compact.events_seq
        rf_part = tuple(
            sorted((ids[seq[w]], ids[seq[r]]) for r, w in compact.rf.items())
        )
        mo_part = tuple(
            sorted(
                tuple(ids[w] for w in var_seq)
                for var_seq in compact.mo.values()
            )
        )
    else:
        rf_part = tuple(sorted((ids[w], ids[r]) for w, r in state.rf.pairs))
        mo_part = tuple(
            sorted(
                tuple(ids[w] for w in state.writes_on(x))
                for x in state.variables()
            )
        )
    return (events_part, rf_part, mo_part)

