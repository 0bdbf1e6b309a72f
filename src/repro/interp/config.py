"""Configurations ``(P, σ)`` of the interpreted semantics."""

from __future__ import annotations

from typing import Generic, Hashable, TypeVar

from repro.lang.program import Program

S = TypeVar("S", bound=Hashable)


class Configuration(Generic[S]):
    """A program paired with a memory-model state (Section 3.3).

    Slotted plain class: the interpreter builds one per transition on
    the exploration hot path (see ``InterpretedStep``).  Equality and
    hashing stay structural over ``(program, state)``, so configurations
    compare by value (the shard wire-format tests rely on it).
    """

    __slots__ = ("program", "state")

    def __init__(self, program: Program, state: S) -> None:
        self.program = program
        self.state = state

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not Configuration:
            return NotImplemented
        return self.program == other.program and self.state == other.state

    def __hash__(self) -> int:
        return hash((self.program, self.state))

    def __repr__(self) -> str:
        return f"Configuration({self.program!r}, {self.state!r})"

    def pc(self, tid: int) -> int:
        """The auxiliary program counter ``P.pc_t`` of a thread."""
        return self.program.pc(tid)

    def is_terminated(self) -> bool:
        """Whether every thread has run to completion."""
        return self.program.is_terminated()

    def __str__(self) -> str:
        return f"({self.program} , {self.state!r})"
