"""Programs: top-level parallel composition of commands (paper, §2.2).

A program is a mapping ``Prog : T → Com`` from thread identifiers to
commands.  Thread ``0`` is reserved for the initialising writes of the
memory model and never appears in a program.  The rule P-Step lifts a
command step of thread ``t`` to the program; Proposition 2.3 (actions of
distinct threads commute) holds by construction because threads share no
command state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.lang.actions import Value
from repro.lang.semantics import PendingStep, command_steps, is_terminated
from repro.lang.syntax import Com, program_counter

Tid = int

#: The initialising pseudo-thread of the memory model.
INIT_TID: Tid = 0


@dataclass(frozen=True)
class Program:
    """An immutable program: thread id → remaining command.

    ``Program`` values are hashable (commands are frozen dataclasses), so
    configurations ``(P, σ)`` can be deduplicated during exploration.
    """

    threads: Tuple[Tuple[Tid, Com], ...]

    def __hash__(self) -> int:
        # Programs sit inside every configuration key the engine stores,
        # and the generated dataclass hash re-walks the whole command
        # AST (a Python-level __hash__ per node) on every dict/set
        # operation.  Compute it once per object — same discipline as
        # Event.__hash__.  (Defining __hash__ in the class body makes
        # @dataclass keep it.)
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.threads)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # str hashing is salted per process (PYTHONHASHSEED), and
        # commands hash over variable names: a cached hash must never
        # cross a pickle boundary.  The cached step table
        # (``repro.interp.compiled``) embeds that hash and holds
        # unpicklable interners, so it stays behind too — the receiving
        # process re-lowers on first use.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("_lowered", None)
        return state

    @classmethod
    def of(cls, mapping: Mapping[Tid, Com]) -> "Program":
        """Build a program from a ``{tid: command}`` mapping."""
        if INIT_TID in mapping:
            raise ValueError(f"thread id {INIT_TID} is reserved for initialisation")
        return cls(tuple(sorted(mapping.items())))

    @classmethod
    def parallel(cls, *commands: Com) -> "Program":
        """Build a program from commands, numbering threads from 1."""
        return cls.of({i + 1: c for i, c in enumerate(commands)})

    def as_dict(self) -> Dict[Tid, Com]:
        return dict(self.threads)

    @property
    def tids(self) -> Tuple[Tid, ...]:
        return tuple(t for t, _ in self.threads)

    def command(self, tid: Tid) -> Com:
        """``P(t)`` — the remaining command of thread ``t``."""
        for t, c in self.threads:
            if t == tid:
                return c
        raise KeyError(tid)

    def update(self, tid: Tid, com: Com) -> "Program":
        """``P[t ↦ C]`` — the program after thread ``t`` steps to ``C``."""
        return Program(
            tuple((t, com if t == tid else c) for t, c in self.threads)
        )

    def pc(self, tid: Tid) -> int:
        """The paper's auxiliary program counter ``P.pc_t`` (§5.2)."""
        return program_counter(self.command(tid))

    @property
    def labels(self) -> Tuple[int, ...]:
        """Every thread's ``pc``, in ``tids`` order (a lowered program
        keeps this tuple per machine state)."""
        return tuple(program_counter(c) for _, c in self.threads)

    def is_terminated(self) -> bool:
        """Whether every thread has run to completion."""
        return all(is_terminated(c) for _, c in self.threads)

    def terminated_threads(self) -> Tuple[Tid, ...]:
        return tuple(t for t, c in self.threads if is_terminated(c))

    def __str__(self) -> str:
        return " || ".join(f"[{t}] {c}" for t, c in self.threads)


def program_steps(program: Program) -> Iterator[Tuple[Tid, PendingStep]]:
    """All uninterpreted steps of ``program`` (rule P-Step).

    Yields ``(tid, step)`` for every thread that can move; the step's
    read hole, if any, is resolved by the memory model when the step is
    interpreted.
    """
    for tid, com in program.threads:
        for step in command_steps(com):
            yield tid, step


def apply_step(
    program: Program, tid: Tid, step: PendingStep, read_value: Optional[Value] = None
) -> Program:
    """The successor program after ``tid`` performs ``step``.

    ``read_value`` fills the step's read hole (must be ``None`` exactly
    when the step has no hole).
    """
    return program.update(tid, step.resume(read_value))
