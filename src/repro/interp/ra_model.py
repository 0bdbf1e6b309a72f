"""The RA event semantics as a pluggable memory model.

Figure 3's rules as a :class:`~repro.interp.memory_model.MemoryModel`:
the enumeration of :func:`repro.c11.event_semantics.ra_successors`,
built straight into the model's answer list.  Read values
are supplied by the observed write (``rdval(e) = wrval(w)``) — the
on-the-fly validation at the heart of the paper.

Reads-from candidates are filtered through the compact representation's
``hb``/``eco`` bitmasks (DESIGN.md §11): ``ra_read_targets`` /
``ra_write_targets`` answer from per-variable ``mo`` sequences against
the acting thread's encountered mask, so resolving a read hole never
materialises a derived-order relation.

The answer lists hold *deferred* successors (``C11State.successor``):
each is keyed at once from the state asked, and builds its own compact
form only when the search asks it for a transition in turn — a
successor that duplicates a known configuration, or sits at the event
bound, is dropped with the memo unbuilt (DESIGN.md §11/§12).
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.c11.event_semantics import ra_read_targets, ra_write_targets
from repro.c11.events import Event
from repro.c11.state import C11State, initial_state
from repro.engine.keys import cached_canonical_key
from repro.interp.compiled import LoweredStep
from repro.interp.memory_model import MemoryModel, MemoryTransition
from repro.lang.actions import Value, Var
from repro.lang.program import Tid
from repro.lang.semantics import PendingStep


class RAMemoryModel(MemoryModel[C11State]):
    """The paper's operational C11 model for the RAR fragment."""

    name = "RA"

    def initial(self, init_values: Mapping[Var, Value]) -> C11State:
        return initial_state(init_values)

    def transitions_list(self, state: C11State, tid: Tid, step: PendingStep):
        # Memoize per state *object* and interned step: a silent program
        # step leaves the memory state untouched, so exploration asks
        # the same (state, tid, step) question from several program
        # points — the answer is a pure function of the three, and
        # lowered steps are interned so the key is two pointers.  (Keyed
        # by object identity, not state equality: structural hashing
        # would force the materialised pair-set relations.)  A reference
        # ``PendingStep`` is unhashable and answered unmemoized.
        memo = None
        if type(step) is LoweredStep:
            memo = state._ra_trans
            if memo is None:
                memo = {}
                state._ra_trans = memo
            cached = memo.get((tid, step))
            if cached is not None:
                return cached
        # Rules Read, Write and RMW (Figure 3), built straight into the
        # answer list: the same enumeration as ``ra_successors`` without
        # its per-transition ``RATransition`` and generator frame.  The
        # read value is the observed write's (``rdval(e) = wrval(w)``),
        # and ``step.action`` resolves (and, on lowered steps, memoizes)
        # the interned action, computed update values included.
        kind, var, action = step.kind, step.var, step.action
        tag = state.next_tag()
        out = []
        if kind.is_read:
            targets = ra_write_targets if kind.is_update else ra_read_targets
            for w in targets(state, tid, var):
                rv = w.wrval
                event = Event(tag, action(rv), tid)
                out.append(MemoryTransition(
                    state.successor(event, w), rv, event, w
                ))
        elif kind.is_write:
            event = Event(tag, action(), tid)
            for w in ra_write_targets(state, tid, var):
                out.append(MemoryTransition(
                    state.successor(event, w), None, event, w
                ))
        else:
            raise ValueError(f"no RA transition for action kind {kind}")
        if memo is not None:
            memo[(tid, step)] = out
        return out

    def drop_memo(self, state: C11State) -> None:
        state._ra_trans = None

    def canonical_state_key(self, state: C11State) -> Hashable:
        return cached_canonical_key(state)

    def step_footprint(self, state: C11State, tid: Tid, step: PendingStep):
        """Per-location footprints are exact for the RA event semantics.

        Steps of distinct threads on disjoint locations commute: a new
        event is placed ``sb``-after its own thread only, ``mo`` is
        per-location, a write's admissible ``mo`` positions depend on the
        ``hb`` edges *into its own thread* (which another thread's step
        cannot create in one transition — ``sw`` edges point at the
        reader), and a read's observable-write set on ``x`` is untouched
        by events on ``y ≠ x``.  Same-location conflicts (≥ 1 write, and
        the RA update reads *and* writes) are exactly the base relation.
        """
        return super().step_footprint(state, tid, step)
