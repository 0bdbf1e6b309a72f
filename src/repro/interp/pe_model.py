"""Pre-executions as a pluggable memory model (paper, Section 4.1).

``→PE`` only ever appends events: reads may return *any* value (the
axioms discard bad guesses later, post hoc).  To keep exploration finite
the value domain for read holes must be finite; by default it is the set
of values the program can ever put into memory — initialisation values
plus every literal written anywhere — which is exactly the set of values
some justification could validate (RF-Complete forces read values to be
written values), so the restriction loses no justifiable pre-execution.

The hot path rides the sequence-backed pre-execution representation
(DESIGN.md §11): ``state.next_tag()`` is a carried counter and
``add_event`` extends per-thread tuples, so no ``sb`` pair set is built
until the justification search materialises one.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Mapping, Optional

from repro.c11.events import Event
from repro.c11.prestate import PreExecutionState, initial_prestate
from repro.engine.keys import cached_canonical_key
from repro.interp.memory_model import MemoryModel, MemoryTransition
from repro.lang.actions import Value, Var
from repro.lang.program import Program, Tid
from repro.lang.semantics import PendingStep
from repro.lang.syntax import Assign, Com, Faa, If, Labeled, Lit, Seq, Swap, While


class PEMemoryModel(MemoryModel[PreExecutionState]):
    """The pre-execution semantics with a finite read-value domain."""

    name = "PE"

    def __init__(self, read_values: FrozenSet[Value]):
        self.read_values = frozenset(read_values)

    @classmethod
    def for_program(
        cls, program: Program, init_values: Mapping[Var, Value]
    ) -> "PEMemoryModel":
        """The model whose read domain is every value the program can
        write (plus the initialisation values)."""
        values = set(init_values.values())
        for _tid, com in program.threads:
            values |= literals_written(com)
        return cls(frozenset(values))

    def initial(self, init_values: Mapping[Var, Value]) -> PreExecutionState:
        return initial_prestate(init_values)

    def transitions_list(self, state: PreExecutionState, tid: Tid, step: PendingStep):
        tag = state.next_tag()
        if step.is_read_hole:
            return [
                MemoryTransition(
                    target=state.add_event(event),
                    read_value=value,
                    event=event,
                )
                for value in sorted(self.read_values)
                for event in (Event(tag, step.action(value), tid),)
            ]
        event = Event(tag, step.action(), tid)
        return [MemoryTransition(target=state.add_event(event), event=event)]

    def canonical_state_key(self, state: PreExecutionState) -> Hashable:
        return cached_canonical_key(state)

    def step_footprint(self, state: PreExecutionState, tid: Tid, step: PendingStep):
        """Pre-execution steps of distinct threads commute *unconditionally*.

        ``→PE`` only appends an event ``sb``-after the acting thread's
        own events, and reads guess their value from a fixed domain
        without consulting the state — Proposition 4.1 verbatim.  The
        footprint is therefore empty even for same-location accesses:
        under PE the reduction may commute everything across threads.
        """
        empty = frozenset()
        return (empty, empty)


def literals_written(com: Com) -> FrozenSet[Value]:
    """Every value literal the command can write to shared memory.

    Conservative over-approximation: all literals appearing in assignment
    right-hand sides and swap arguments, plus results of closed
    arithmetic are *not* folded — a program computing ``x := y + 1``
    writes a value outside this set only if ``y + 1`` leaves the domain,
    in which case PE exploration (and hence justification) simply will
    not guess it; such programs should supply the domain explicitly.
    """
    out = set()

    def walk_exp(e) -> None:
        if isinstance(e, Lit):
            out.add(e.value)
        elif hasattr(e, "operand"):
            walk_exp(e.operand)
        elif hasattr(e, "left"):
            walk_exp(e.left)
            walk_exp(e.right)

    def walk(c: Com) -> None:
        if isinstance(c, Assign):
            walk_exp(c.exp)
        elif isinstance(c, Swap):
            out.add(c.value)
        elif isinstance(c, Faa):
            out.add(c.add)
        elif isinstance(c, Seq):
            walk(c.first)
            walk(c.second)
        elif isinstance(c, If):
            walk(c.then_branch)
            walk(c.else_branch)
        elif isinstance(c, While):
            walk(c.body)
        elif isinstance(c, Labeled):
            walk(c.body)

    walk(com)
    return frozenset(out)
