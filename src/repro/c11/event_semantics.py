"""The RA event semantics — Figure 3's Read, Write and RMW rules.

Each transition ``σ --(w, e)-->RA σ'`` records the *observed write* ``w``
alongside the new event ``e``; the paper keeps ``w`` explicit because the
verification calculus (Figure 4's rules) is conditioned on which
modification a transition observes.

* **Read** — ``e`` reads variable ``x``: pick any ``w ∈ OW_σ(t)`` on ``x``;
  the value read is ``wrval(w)``; ``rf' = rf ∪ {(w, e)}``.
* **Write** — ``e`` writes ``x``: pick any ``w ∈ OW_σ(t) \\ CW_σ`` on ``x``
  and insert ``e`` immediately after ``w`` in ``mo``.
* **RMW** — both at once: ``w ∈ OW_σ(t) \\ CW_σ`` on ``x`` with
  ``wrval(w) = rdval(e)``; add the rf edge *and* the mo insertion —
  guaranteeing the update sits mo-adjacent to the write it read.

Reads are validated **on the fly**: every state this module produces is a
valid C11 state (Theorem 4.4; checked empirically by
``repro.checking.soundness``).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Union

from repro.c11.events import Event
from repro.c11.observability import covered_writes, observable_writes
from repro.c11.state import C11State
from repro.lang.actions import Action, ActionKind, Value, Var, intern_action
from repro.lang.program import Tid


class RATransition:
    """One step ``σ --(observed, event)-->RA target`` of the event
    semantics.  Slotted plain class: one is built per transition on the
    exploration hot path (see ``InterpretedStep``)."""

    __slots__ = ("source", "observed", "event", "target")

    def __init__(
        self, source: C11State, observed: Event, event: Event,
        target: C11State,
    ) -> None:
        self.source = source
        self.observed = observed
        self.event = event
        self.target = target

    def __repr__(self) -> str:
        return (
            f"RATransition(observed={self.observed!r}, "
            f"event={self.event!r})"
        )

    def __str__(self) -> str:
        return f"--[{self.observed}] {self.event}-->"


def ra_read_targets(state: C11State, tid: Tid, var: Var) -> List[Event]:
    """The writes a read of ``var`` by ``tid`` may observe (rule Read).

    Sequence-backed states (DESIGN.md §11) filter the candidates with
    one bitmask pass over the variable's ``mo`` sequence against the
    thread's cached encountered mask — no derived-order relation is
    ever materialised on this path."""
    c = state.compact
    if c is not None:
        return c.read_targets(tid, var)
    return sorted(observable_writes(state, tid, var), key=lambda w: w.tag)


def ra_write_targets(state: C11State, tid: Tid, var: Var) -> List[Event]:
    """The writes a write/update may be mo-inserted after (Write/RMW):
    observable and not covered."""
    c = state.compact
    if c is not None:
        return c.write_targets(tid, var)
    covered = covered_writes(state)
    return sorted(
        (w for w in observable_writes(state, tid, var) if w not in covered),
        key=lambda w: w.tag,
    )


def ra_transitions_for_action(
    state: C11State, action: Action, tid: Tid
) -> Iterator[RATransition]:
    """All RA transitions performing exactly ``action`` from ``state``.

    For read actions the read value of ``action`` must match the observed
    write's value (this is how the axiomatic replay of Theorem 4.8 pins
    down a specific execution).  Use :func:`ra_successors` instead when
    the read value is a hole to be enumerated.
    """
    if action.kind is ActionKind.TAU:
        return
    yield from ra_transitions_for_event(
        state, Event(state.next_tag(), action, tid)
    )


def ra_transitions_for_event(
    state: C11State, event: Event
) -> Iterator[RATransition]:
    """All RA transitions appending the *given* event (tag included).

    The completeness replay (Theorem 4.8) re-executes the exact events of
    a justified pre-execution, so the appended event must keep its tag —
    ``ra_transitions_for_action`` would mint a fresh one.
    """
    action = event.action
    assert action.var is not None
    targets = ra_write_targets if action.is_write else ra_read_targets
    for w in targets(state, event.tid, action.var):
        if not action.is_read or w.wrval == action.rdval:
            yield RATransition(state, w, event, state.successor(event, w))


def ra_successors(
    state: C11State,
    tid: Tid,
    kind: ActionKind,
    var: Var,
    wrval: Union[Value, Callable[[Value], Value], None] = None,
) -> Iterator[RATransition]:
    """All RA transitions for a step whose read value (if any) is a hole.

    This is the memory-model side of the interpreted semantics: the
    program offers a read/write/update of ``var``; the state answers with
    every observable resolution.  Read values are *derived from* the
    observed write (``rdval(e) = wrval(w)``), which is precisely the
    on-the-fly validation that distinguishes ``→RA`` from pre-executions.

    For updates, ``wrval`` may be a *callable* mapping the value read to
    the value written (fetch-and-add's ``m ↦ m + k``); a plain value is
    the constant-write ``swap``.  Either way the event appended is an
    ordinary ``updRA`` with both values concrete.
    """
    tag = state.next_tag()

    if kind in (ActionKind.RD, ActionKind.RDA):
        for w in ra_read_targets(state, tid, var):
            action = intern_action(kind, var, rdval=w.wrval)
            event = Event(tag, action, tid)
            yield RATransition(state, w, event, state.successor(event, w))
        return

    if kind in (ActionKind.WR, ActionKind.WRR):
        assert wrval is not None
        action = intern_action(kind, var, wrval=wrval)
        event = Event(tag, action, tid)
        for w in ra_write_targets(state, tid, var):
            yield RATransition(state, w, event, state.successor(event, w))
        return

    if kind is ActionKind.UPD:
        assert wrval is not None
        for w in ra_write_targets(state, tid, var):
            written = wrval(w.wrval) if callable(wrval) else wrval
            action = intern_action(kind, var, rdval=w.wrval, wrval=written)
            event = Event(tag, action, tid)
            yield RATransition(state, w, event, state.successor(event, w))
        return

    raise ValueError(f"no RA transition for action kind {kind}")
