"""Strong release-acquire (SRA) — the Lahav et al. comparator model.

The paper's related work (§6) situates the RAR fragment against Lahav,
Giannarakis and Vafeiadis' *taming release-acquire* model [16], "a
stronger release-acquire model, where ``sb ∪ rf ∪ mo`` is required to be
acyclic" (the paper's own fragment only demands ``sb ∪ rf`` acyclic).
Having it pluggable makes the difference *observable*: 2+2W's weak
outcome builds an ``sb ∪ mo`` cycle — allowed under RA, forbidden under
SRA — while store buffering stays allowed under both (it needs a full SC
order to forbid).

Operationally, SRA is the RA event semantics with transitions into
states whose ``sb ∪ rf ∪ mo`` is cyclic pruned away.  This is adequate
for reachability: every relation involved only grows along a run, and
restrictions of acyclic relations are acyclic, so any SRA-consistent
complete execution is reachable through SRA-consistent prefixes
(the same prefix-restriction argument as Theorem 4.8).
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.c11.state import C11State, initial_state
from repro.engine.keys import cached_canonical_key
from repro.interp.memory_model import MemoryModel
from repro.interp.ra_model import RAMemoryModel
from repro.lang.actions import Value, Var
from repro.lang.program import Tid
from repro.lang.semantics import PendingStep


def sra_consistent(state: C11State) -> bool:
    """Whether ``sb ∪ rf ∪ mo`` is acyclic (the SRA strengthening).

    Sequence-backed states (DESIGN.md §11) answer over the interned
    immediate-successor graph — per-thread and per-variable chains plus
    the ``rf`` edges, O(n) edges total — which has a cycle exactly when
    the transitive union does.  Hand-assembled states materialise the
    union as before."""
    c = state.compact
    if c is not None:
        return c.union_acyclic()
    return (state.sb | state.rf | state.mo).is_acyclic()


class SRAMemoryModel(MemoryModel[C11State]):
    """RA filtered to SRA-consistent states."""

    name = "SRA"

    def __init__(self) -> None:
        self._ra = RAMemoryModel()

    def initial(self, init_values: Mapping[Var, Value]) -> C11State:
        return initial_state(init_values)

    def transitions_list(self, state: C11State, tid: Tid, step: PendingStep):
        return [
            mt
            for mt in self._ra.transitions_list(state, tid, step)
            if sra_consistent(mt.target)
        ]

    def drop_memo(self, state: C11State) -> None:
        # the transition lists this model filters are the RA model's
        # memo, kept on the same state
        self._ra.drop_memo(state)

    def canonical_state_key(self, state: C11State) -> Hashable:
        return cached_canonical_key(state)

    def step_footprint(self, state: C11State, tid: Tid, step: PendingStep):
        """RA footprints remain exact under the SRA filter.

        ``sb ∪ rf ∪ mo`` only ever grows along a run and restrictions of
        acyclic relations are acyclic, so an intermediate state of a
        two-step sequence is never the cyclic one when the final state is
        acyclic — both orders of commuting RA steps are pruned (or kept)
        together, and the RA commutation argument carries over verbatim.
        """
        return self._ra.step_footprint(state, tid, step)
