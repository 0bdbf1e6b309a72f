"""Lowered programs: dense machine states over compiled step tables.

The bridge between the compiler (:mod:`repro.lang.lower`) and the
interpreted semantics.  A :class:`LoweredTable` is computed **once per
source** :class:`~repro.lang.program.Program` (cached on the program
object, like its hash) and shared by every configuration of a run; a
:class:`LoweredProgram` is then just the table plus one ``(pc, vals)``
pair per thread — hashing and equality are over small integer tuples
instead of command ASTs, which is where the engine's seen-set and
parent-map operations spend their time.

:class:`LoweredStep` is protocol-compatible with
:class:`~repro.lang.semantics.PendingStep` (``kind``/``var``/``wrval``/
``wrfun``/``write_value``/``action``/``is_read_hole``/``is_silent``), so
the four memory models consume either — with two hot-path upgrades:
steps are interned per ``(instruction, vals)`` so identical thread
states across configurations share one object, and ``action()``
memoizes per read value through the global action interner.

Every program is lowered: :func:`maybe_lower` is the one entry point
(the explorers and :func:`~repro.interp.interpreter.initial_configuration`
call it), and the interpreter, the memory models and the engine step
:class:`LoweredProgram` only.  The AST semantics of
:mod:`repro.lang.semantics` stays the reference the tables are tested
against (DESIGN.md §12).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lang.actions import ActionKind, TAU, Value, Var, intern_action
from repro.lang.lower import (
    PC_TERM,
    Instr,
    ThreadTable,
    concretize,
    eval_ops,
    lower_thread,
)
from repro.lang.program import Program, Tid
from repro.lang.syntax import Com, PC_DONE, Skip, truthy

SKIP = Skip()

#: Machine state of one thread: table index plus placeholder values.
ThreadState = Tuple[int, Tuple[Value, ...]]


class LoweredStep:
    """The pending step of one lowered thread state.

    Interned per ``(instruction, vals)`` — see :func:`step_of` — so the
    reduction layer's per-node footprint loop and the interpreter's
    expansion share one object per distinct thread state.  The write
    value of a computed write (a partially evaluated assignment such as
    ``y := v0 + 1``) is folded at construction, so memory models see an
    ordinary constant-``wrval`` step.
    """

    __slots__ = ("instr", "vals", "kind", "var", "wrval", "wrfun",
                 "_actions", "_taken")

    def __init__(self, instr: Instr, vals: Tuple[Value, ...]) -> None:
        self.instr = instr
        self.vals = vals
        self.kind = instr.kind
        self.var = instr.var
        if instr.wrops is not None:
            self.wrval: Optional[Value] = eval_ops(instr.wrops, vals)
        else:
            self.wrval = instr.wrval
        self.wrfun = instr.wrfun
        self._actions: dict = {}
        self._taken: Optional[bool] = None

    @property
    def is_read_hole(self) -> bool:
        return self.kind.is_read

    @property
    def is_silent(self) -> bool:
        return self.kind.is_silent

    @property
    def taken(self) -> bool:
        """Which arm a branch instruction resolves to (memoized)."""
        t = self._taken
        if t is None:
            t = truthy(eval_ops(self.instr.guard_ops, self.vals))
            self._taken = t
        return t

    @property
    def control_visible(self) -> bool:
        """Whether this step changes ``(pc, terminated)`` of its thread.

        Read straight off the table entry; a branch picks the
        precomputed bit of its resolved arm.
        """
        i = self.instr
        if i.is_branch:
            return i.vis_then if self.taken else i.vis_else
        return i.visible

    def write_value(self, read_value: Optional[Value] = None) -> Value:
        if self.wrfun is not None:
            if read_value is None:
                raise ValueError("computed update needs its read value")
            return self.wrfun(read_value)
        assert self.wrval is not None
        return self.wrval

    def action(self, read_value: Optional[Value] = None):
        a = self._actions.get(read_value)
        if a is None:
            kind = self.kind
            if kind is ActionKind.TAU:
                a = TAU
            elif kind is ActionKind.WR or kind is ActionKind.WRR:
                a = intern_action(kind, self.var, wrval=self.wrval)
            elif read_value is None:
                raise ValueError("read step needs a value for its hole")
            elif kind is ActionKind.UPD:
                a = intern_action(kind, self.var, rdval=read_value,
                                  wrval=self.write_value(read_value))
            else:
                a = intern_action(kind, self.var, rdval=read_value)
            self._actions[read_value] = a
        return a

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LoweredStep(pc={self.instr.pc}, {self.kind.value}, vals={self.vals})"


def step_of(instr: Instr, vals: Tuple[Value, ...]) -> LoweredStep:
    """The interned :class:`LoweredStep` of one thread state."""
    step = instr.steps.get(vals)
    if step is None:
        step = LoweredStep(instr, vals)
        instr.steps[vals] = step
    return step


class LoweredTable:
    """The compiled step tables of a whole program, slot-indexed."""

    __slots__ = ("source", "tids", "threads", "slot_of", "entry", "base_hash")

    def __init__(self, source: Program, tables: List[ThreadTable]) -> None:
        self.source = source
        self.tids: Tuple[Tid, ...] = source.tids
        self.threads: Tuple[List[Instr], ...] = tuple(t.instrs for t in tables)
        self.slot_of: Dict[Tid, int] = {tid: i for i, tid in enumerate(self.tids)}
        self.base_hash = hash(source)
        for slot, instrs in enumerate(self.threads):
            for ins in instrs:
                ins.slot = slot
        self.entry = LoweredProgram(
            self, tuple((t.entry_pc, ()) for t in tables)
        )


class LoweredProgram:
    """A program as dense thread states over a shared step table.

    Drop-in for :class:`~repro.lang.program.Program` everywhere the
    engine touches programs during exploration (``tids``/``pc``/
    ``command``/``is_terminated``/``terminated_threads``/``__str__``),
    with integer-tuple hashing/equality — the canonical configuration
    key therefore encodes table-index pcs, not ASTs.
    """

    __slots__ = ("table", "pcs", "_hash", "_steps", "_done")

    def __init__(self, table: LoweredTable, pcs: Tuple[ThreadState, ...]) -> None:
        self.table = table
        self.pcs = pcs
        self._hash = table.base_hash ^ hash(pcs)
        self._steps: Optional[Dict[Tid, LoweredStep]] = None
        self._done: Optional[bool] = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not LoweredProgram:
            return NotImplemented
        return self.pcs == other.pcs and (
            self.table is other.table or self.table.source == other.table.source
        )

    def __reduce__(self):
        # The table is a deterministic function of the source program;
        # ship (source, pcs) and re-lower on the other side.
        return (_restore_lowered, (self.table.source, self.pcs))

    # -- Program protocol ----------------------------------------------

    @property
    def tids(self) -> Tuple[Tid, ...]:
        return self.table.tids

    @property
    def threads(self) -> Tuple[Tuple[Tid, Com], ...]:
        """Compatibility view: concrete commands per thread (slow path)."""
        return tuple((tid, self.command(tid)) for tid in self.table.tids)

    def command(self, tid: Tid) -> Com:
        slot = self.table.slot_of[tid]
        pc, vals = self.pcs[slot]
        if pc == PC_TERM:
            return SKIP
        return concretize(self.table.threads[slot][pc].com, vals)

    def pc(self, tid: Tid) -> int:
        slot = self.table.slot_of[tid]
        pc = self.pcs[slot][0]
        if pc == PC_TERM:
            return PC_DONE
        return self.table.threads[slot][pc].label

    def is_terminated(self) -> bool:
        done = self._done
        if done is None:
            done = all(p[0] == PC_TERM for p in self.pcs)
            self._done = done
        return done

    def terminated_threads(self) -> Tuple[Tid, ...]:
        return tuple(
            tid for tid, (pc, _vals) in zip(self.table.tids, self.pcs)
            if pc == PC_TERM
        )

    def source_program(self) -> Program:
        """The equivalent AST :class:`Program` (concretized)."""
        return Program(self.threads)

    def __str__(self) -> str:
        return " || ".join(f"[{t}] {c}" for t, c in self.threads)

    # -- lowered-machine operations ------------------------------------

    def update_slot(
        self, slot: int, pc: int, vals: Tuple[Value, ...]
    ) -> "LoweredProgram":
        """The program after thread slot ``slot`` steps to ``(pc, vals)``."""
        pcs = self.pcs
        return LoweredProgram(
            self.table, pcs[:slot] + ((pc, vals),) + pcs[slot + 1:]
        )

    def pending_steps(self) -> Dict[Tid, LoweredStep]:
        """The one pending step per live thread (computed once per node).

        The uninterpreted semantics is deterministic up to the read hole
        (``repro.lang.semantics``): each command yields at most one
        step, so thread-granular reduction is well-defined — choosing a
        thread chooses its step, and only the memory model branches
        below it.
        """
        steps = self._steps
        if steps is None:
            steps = {}
            table = self.table
            for slot, (pc, vals) in enumerate(self.pcs):
                if pc != PC_TERM:
                    steps[table.tids[slot]] = step_of(table.threads[slot][pc], vals)
            self._steps = steps
        return steps


def _restore_lowered(source: Program, pcs: Tuple[ThreadState, ...]) -> LoweredProgram:
    return LoweredProgram(lowered_table(source), pcs)


def lowered_table(program: Program) -> LoweredTable:
    """The step table of ``program``, compiled once and cached on it."""
    table = program.__dict__.get("_lowered")
    if table is None:
        table = LoweredTable(
            program, [lower_thread(com) for _tid, com in program.threads]
        )
        object.__setattr__(program, "_lowered", table)
    return table


def maybe_lower(program) -> LoweredProgram:
    """``program`` compiled to its lowered entry state, unless it is
    already lowered.

    The one entry point the engine calls (at ``explore`` /
    ``initial_configuration`` time); everything downstream steps
    lowered programs only.
    """
    if isinstance(program, LoweredProgram):
        return program
    return lowered_table(program).entry


__all__ = [
    "LoweredProgram",
    "LoweredStep",
    "LoweredTable",
    "lowered_table",
    "maybe_lower",
    "step_of",
]
