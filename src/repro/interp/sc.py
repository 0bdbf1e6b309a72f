"""A sequentially consistent memory model (baseline comparator).

Not part of the paper's contribution, but indispensable for evaluating
it: litmus-test verdicts under the RA semantics are only meaningful
relative to what interleaving semantics allows (E7), and the paper's
framing — "conventional reasoning over SC memory" — is what the
verification calculus is measured against.

SC memory is the classic store: a mapping from variables to values.
Reads return the current value, writes overwrite it, updates do both
atomically.  States are tuples of sorted ``(var, value)`` pairs so they
hash and compare structurally.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Optional, Tuple

from repro.interp.memory_model import MemoryModel, MemoryTransition
from repro.lang.actions import ActionKind, Value, Var
from repro.lang.program import Tid
from repro.lang.semantics import PendingStep

SCState = Tuple[Tuple[Var, Value], ...]


def sc_store(mapping: Mapping[Var, Value]) -> SCState:
    """Build an SC state from a ``{var: value}`` mapping."""
    return tuple(sorted(mapping.items()))


def sc_lookup(state: SCState, var: Var) -> Value:
    """The current value of ``var``."""
    for x, v in state:
        if x == var:
            return v
    raise KeyError(var)


def sc_update(state: SCState, var: Var, value: Value) -> SCState:
    """The store after writing ``value`` to ``var``."""
    return tuple((x, value if x == var else v) for x, v in state)


class SCMemoryModel(MemoryModel[SCState]):
    """Sequential consistency: one global store, atomic accesses."""

    name = "SC"

    def initial(self, init_values: Mapping[Var, Value]) -> SCState:
        return sc_store(init_values)

    def transitions_list(self, state: SCState, tid: Tid, step: PendingStep):
        # Every SC step is deterministic: build the singleton directly.
        kind = step.kind
        if kind in (ActionKind.RD, ActionKind.RDA):
            return [MemoryTransition(
                target=state, read_value=sc_lookup(state, step.var)
            )]
        if kind in (ActionKind.WR, ActionKind.WRR):
            return [MemoryTransition(
                target=sc_update(state, step.var, step.wrval)
            )]
        read = sc_lookup(state, step.var)
        return [MemoryTransition(
            target=sc_update(state, step.var, step.write_value(read)),
            read_value=read,
        )]

    def step_footprint(self, state: SCState, tid: Tid, step: PendingStep):
        """The textbook footprint: SC accesses touch exactly their cell.

        Reads return the cell's value and writes overwrite it, so two
        steps on distinct variables commute outright and two reads of the
        same variable commute too — the default same-location/≥-1-write
        relation is exact.
        """
        return super().step_footprint(state, tid, step)
