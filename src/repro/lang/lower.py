"""Lowering: compile a command to a flat step table (DESIGN.md §12).

The uninterpreted semantics is deterministic up to the read hole
(``repro.lang.semantics``): from any command there is at most one step,
and the *structure* of the successor does not depend on the value a read
hole receives — only later guard-resolution steps branch on it.  A
thread's reachable command states therefore form a finite table that can
be computed **once per program**: this module explores them by *symbolic
execution*, abstracting every substituted read value as a placeholder
(:class:`SymVal`), canonically renumbering placeholders, and
hash-consing the resulting symbolic commands into integer program
counters.  The machine state of a thread collapses to ``(pc, vals)`` —
a table index plus the concrete values instantiating the placeholders —
and a step becomes a table lookup instead of an AST walk.

Each table entry (:class:`Instr`) precomputes everything stepping the
AST would re-derive per node:

* the step's action shape (``kind``/``var``), with constant write
  values folded and computed ones compiled to closure-free postfix
  programs over ``vals`` (:func:`eval_ops`);
* resolved successor pcs — including loop back-edges, which ``resume``
  re-builds structurally on every iteration — and *keep maps*
  describing how the successor's ``vals`` derive from the current ones
  and the value read;
* the paper's program counter (``label``) of the state and the
  control-visibility bit(s) the reduction layer needs (whether the step
  changes ``(pc, terminated)``), so ``por/deps`` reads it off the
  table instead of probing ``resume``.

**Identity is the machine state.**  The compiler is total: every
command lowers, and the engine deduplicates configurations by their
``(pc, vals)`` machine states.  Hash-consing merges exactly the
symbolic states that are structurally equal, and a placeholder is never
equal to a literal, so a value a thread has read stays distinct from a
source literal that happens to be equal to it (``y := ⟨v0⟩`` after
reading ``0`` is not merged with a literal ``y := 0`` elsewhere in the
thread).  Outcomes are unaffected — both states have the same
continuations — but such a program may count a few more configurations
than deduplication by concrete command would.  ``repro.lang.semantics``
stays the reference semantics: ``tests/test_lower_parity.py`` checks
every table step against ``program_steps``/``resume`` at every
configuration the search reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.lang.actions import ActionKind, Value, Var
from repro.lang.semantics import _relabel, _sequence
from repro.lang.syntax import (
    BINOPS,
    Assign,
    BinOp,
    Com,
    Exp,
    Faa,
    If,
    Labeled,
    Lit,
    Load,
    Not,
    Seq,
    Skip,
    Swap,
    While,
    eval_closed,
    leftmost_load,
    program_counter,
    substitute_leftmost,
    truthy,
)

SKIP = Skip()

#: Program counter of a terminated thread in the lowered encoding.
PC_TERM = -1


@dataclass(frozen=True)
class SymVal:
    """A placeholder for a run-time value inside a symbolic command.

    ``index >= 0`` names a slot of the thread's machine word ``vals``;
    ``index == -1`` (:data:`FRESH`) stands for the value the current
    step's read hole receives.  Placeholders live inside ``Lit`` nodes,
    which never get evaluated symbolically — the compiler checks for
    them before any ``eval_closed`` call.
    """

    index: int

    def __str__(self) -> str:  # pragma: no cover - debug rendering
        return "⟨rd⟩" if self.index < 0 else f"⟨v{self.index}⟩"


#: The placeholder for the value the current step reads.
FRESH = SymVal(-1)


# ======================================================================
# Symbolic command utilities
# ======================================================================


def _exp_syms(exp: Exp, out: List[SymVal]) -> None:
    if isinstance(exp, Lit):
        v = exp.value
        if type(v) is SymVal and v not in out:
            out.append(v)
    elif isinstance(exp, Not):
        _exp_syms(exp.operand, out)
    elif isinstance(exp, BinOp):
        _exp_syms(exp.left, out)
        _exp_syms(exp.right, out)


def com_syms(com: Com) -> List[SymVal]:
    """The placeholders of ``com`` in first-occurrence order."""
    out: List[SymVal] = []

    def walk(c: Com) -> None:
        if isinstance(c, Assign):
            _exp_syms(c.exp, out)
        elif isinstance(c, Seq):
            walk(c.first)
            walk(c.second)
        elif isinstance(c, If):
            _exp_syms(c.guard, out)
            walk(c.then_branch)
            walk(c.else_branch)
        elif isinstance(c, While):
            _exp_syms(c.guard, out)
            walk(c.body)
            if c.current is not None:
                _exp_syms(c.current, out)
        elif isinstance(c, Labeled):
            walk(c.body)
        # Skip/Swap/Faa carry no expressions.

    walk(com)
    return out


def _rename_exp(exp: Exp, m: Dict[SymVal, SymVal]) -> Exp:
    if isinstance(exp, Lit):
        v = exp.value
        if type(v) is SymVal:
            return Lit(m[v])
        return exp
    if isinstance(exp, Not):
        new = _rename_exp(exp.operand, m)
        return exp if new is exp.operand else Not(new)
    if isinstance(exp, BinOp):
        left = _rename_exp(exp.left, m)
        right = _rename_exp(exp.right, m)
        if left is exp.left and right is exp.right:
            return exp
        return BinOp(exp.op, left, right)
    return exp


def rename_com(com: Com, m: Dict[SymVal, SymVal]) -> Com:
    """``com`` with placeholders renamed per ``m`` (sharing untouched parts)."""
    if isinstance(com, Assign):
        new = _rename_exp(com.exp, m)
        return com if new is com.exp else Assign(com.var, new, com.release)
    if isinstance(com, Seq):
        first = rename_com(com.first, m)
        second = rename_com(com.second, m)
        if first is com.first and second is com.second:
            return com
        return Seq(first, second)
    if isinstance(com, If):
        guard = _rename_exp(com.guard, m)
        then = rename_com(com.then_branch, m)
        other = rename_com(com.else_branch, m)
        if guard is com.guard and then is com.then_branch and other is com.else_branch:
            return com
        return If(guard, then, other)
    if isinstance(com, While):
        guard = _rename_exp(com.guard, m)
        body = rename_com(com.body, m)
        current = None if com.current is None else _rename_exp(com.current, m)
        if guard is com.guard and body is com.body and current is com.current:
            return com
        return While(guard, body, current)
    if isinstance(com, Labeled):
        body = rename_com(com.body, m)
        return com if body is com.body else Labeled(com.pc, body)
    return com  # Skip/Swap/Faa


def _subst_exp(exp: Exp, vals: Tuple[Value, ...], read: Optional[Value]) -> Exp:
    if isinstance(exp, Lit):
        v = exp.value
        if type(v) is SymVal:
            return Lit(read if v.index < 0 else vals[v.index])
        return exp
    if isinstance(exp, Not):
        new = _subst_exp(exp.operand, vals, read)
        return exp if new is exp.operand else Not(new)
    if isinstance(exp, BinOp):
        left = _subst_exp(exp.left, vals, read)
        right = _subst_exp(exp.right, vals, read)
        if left is exp.left and right is exp.right:
            return exp
        return BinOp(exp.op, left, right)
    return exp


def concretize(
    com: Com, vals: Tuple[Value, ...], read: Optional[Value] = None
) -> Com:
    """The concrete command a symbolic state denotes under ``vals``.

    This is the inverse of the abstraction: substituting slot values
    (and ``read`` for :data:`FRESH`) for the placeholders reconstructs
    exactly the command the reference semantics would hold.
    """
    if isinstance(com, Assign):
        new = _subst_exp(com.exp, vals, read)
        return com if new is com.exp else Assign(com.var, new, com.release)
    if isinstance(com, Seq):
        first = concretize(com.first, vals, read)
        second = concretize(com.second, vals, read)
        if first is com.first and second is com.second:
            return com
        return Seq(first, second)
    if isinstance(com, If):
        guard = _subst_exp(com.guard, vals, read)
        then = concretize(com.then_branch, vals, read)
        other = concretize(com.else_branch, vals, read)
        if guard is com.guard and then is com.then_branch and other is com.else_branch:
            return com
        return If(guard, then, other)
    if isinstance(com, While):
        guard = _subst_exp(com.guard, vals, read)
        body = concretize(com.body, vals, read)
        current = None if com.current is None else _subst_exp(com.current, vals, read)
        if guard is com.guard and body is com.body and current is com.current:
            return com
        return While(guard, body, current)
    if isinstance(com, Labeled):
        body = concretize(com.body, vals, read)
        return com if body is com.body else Labeled(com.pc, body)
    return com  # Skip/Swap/Faa


def _has_sym_exp(exp: Exp) -> bool:
    if isinstance(exp, Lit):
        return type(exp.value) is SymVal
    if isinstance(exp, Not):
        return _has_sym_exp(exp.operand)
    if isinstance(exp, BinOp):
        return _has_sym_exp(exp.left) or _has_sym_exp(exp.right)
    return False


# ======================================================================
# Closure-free expression programs
# ======================================================================


def compile_ops(exp: Exp) -> Tuple[tuple, ...]:
    """A closed symbolic expression as a postfix program over ``vals``.

    Ops: ``('lit', v)`` pushes a constant, ``('val', i)`` pushes
    ``vals[i]``, ``('not',)`` negates, ``('bin', op)`` applies a
    :data:`~repro.lang.syntax.BINOPS` operator.  Tuples of tuples are
    picklable and evaluation mirrors ``eval_closed`` exactly (same
    left-to-right order, same operator table).
    """
    out: List[tuple] = []

    def walk(e: Exp) -> None:
        if isinstance(e, Lit):
            v = e.value
            if type(v) is SymVal:
                out.append(("val", v.index))
            else:
                out.append(("lit", v))
        elif isinstance(e, Not):
            walk(e.operand)
            out.append(("not",))
        elif isinstance(e, BinOp):
            walk(e.left)
            walk(e.right)
            out.append(("bin", e.op))
        else:  # pragma: no cover - Load impossible in a closed expression
            raise TypeError(f"expression is not closed: {e!r}")

    walk(exp)
    return tuple(out)


def eval_ops(ops: Tuple[tuple, ...], vals: Tuple[Value, ...]) -> Value:
    """Evaluate a postfix program against a machine word."""
    stack: List[Value] = []
    push = stack.append
    for op in ops:
        tag = op[0]
        if tag == "lit":
            push(op[1])
        elif tag == "val":
            push(vals[op[1]])
        elif tag == "not":
            push(0 if stack.pop() else 1)
        else:
            b = stack.pop()
            a = stack.pop()
            push(BINOPS[op[1]](a, b))
    return stack[0]


# ======================================================================
# The symbolic mirror of ``command_steps``
# ======================================================================


class _SymStep:
    """The one symbolic step of a symbolic command state."""

    __slots__ = (
        "op", "kind", "var", "succ", "guard", "then_succ", "else_succ",
        "wrexp", "wrval", "addk",
    )

    def __init__(self, op, kind=None, var=None, succ=None, guard=None,
                 then_succ=None, else_succ=None, wrexp=None, wrval=None,
                 addk=None):
        self.op = op                # 'tau' | 'branch' | 'read' | 'write' | 'upd'
        self.kind = kind
        self.var = var
        self.succ = succ            # raw successor (may contain FRESH)
        self.guard = guard          # branch: closed symbolic guard
        self.then_succ = then_succ
        self.else_succ = else_succ
        self.wrexp = wrexp          # write: closed symbolic right-hand side
        self.wrval = wrval          # upd (swap): constant write value
        self.addk = addk            # upd (faa): the added constant

    def wrap(self, f: Callable[[Com], Com]) -> "_SymStep":
        """Apply a successor context (the ``Seq``/``Labeled`` wrappers)."""
        if self.op == "branch":
            self.then_succ = f(self.then_succ)
            self.else_succ = f(self.else_succ)
        else:
            self.succ = f(self.succ)
        return self


def sym_step(com: Com) -> Optional[_SymStep]:
    """The symbolic step of ``com`` — ``command_steps`` with read values
    abstracted as placeholders and guard resolution deferred to run time
    whenever a placeholder reaches a closed guard.

    Returns ``None`` for the terminated command.  Every successor is
    built with the *same* smart constructors the reference semantics uses
    (``_sequence``, ``_relabel``, ``substitute_leftmost``), so a
    concretized successor is byte-identical to what ``resume`` yields.
    """
    if isinstance(com, Skip):
        return None

    if isinstance(com, Assign):
        if com.exp.free_vars():
            load = leftmost_load(com.exp)
            assert load is not None
            _, new_exp = substitute_leftmost(com.exp, FRESH)
            kind = ActionKind.RDA if load.acquire else ActionKind.RD
            return _SymStep(
                "read", kind=kind, var=load.var,
                succ=Assign(com.var, new_exp, com.release),
            )
        kind = ActionKind.WRR if com.release else ActionKind.WR
        return _SymStep("write", kind=kind, var=com.var, wrexp=com.exp, succ=SKIP)

    if isinstance(com, Swap):
        succ = SKIP if com.reg is None else Assign(com.reg, Lit(FRESH))
        return _SymStep("upd", kind=ActionKind.UPD, var=com.var,
                        wrval=com.value, succ=succ)

    if isinstance(com, Faa):
        succ = SKIP if com.reg is None else Assign(com.reg, Lit(FRESH))
        return _SymStep("upd", kind=ActionKind.UPD, var=com.var,
                        addk=com.add, succ=succ)

    if isinstance(com, Seq):
        if isinstance(com.first, Skip):
            return _SymStep("tau", succ=com.second)
        inner = sym_step(com.first)
        assert inner is not None
        return inner.wrap(lambda c, _s=com.second: _sequence(c, _s))

    if isinstance(com, If):
        guard = com.guard
        if guard.free_vars():
            load = leftmost_load(guard)
            assert load is not None
            _, new_g = substitute_leftmost(guard, FRESH)
            kind = ActionKind.RDA if load.acquire else ActionKind.RD
            return _SymStep(
                "read", kind=kind, var=load.var,
                succ=If(new_g, com.then_branch, com.else_branch),
            )
        if _has_sym_exp(guard):
            return _SymStep("branch", guard=guard,
                            then_succ=com.then_branch, else_succ=com.else_branch)
        if truthy(eval_closed(guard)):
            return _SymStep("tau", succ=com.then_branch)
        return _SymStep("tau", succ=com.else_branch)

    if isinstance(com, While):
        test = com.test
        if test.free_vars():
            load = leftmost_load(test)
            assert load is not None
            _, new_t = substitute_leftmost(test, FRESH)
            kind = ActionKind.RDA if load.acquire else ActionKind.RD
            return _SymStep(
                "read", kind=kind, var=load.var,
                succ=While(com.guard, com.body, current=new_t),
            )
        unfold = _sequence(com.body, While(com.guard, com.body))
        if _has_sym_exp(test):
            return _SymStep("branch", guard=test, then_succ=unfold, else_succ=SKIP)
        if truthy(eval_closed(test)):
            return _SymStep("tau", succ=unfold)
        return _SymStep("tau", succ=SKIP)

    if isinstance(com, Labeled):
        if isinstance(com.body, Skip):
            return _SymStep("tau", succ=SKIP)
        inner = sym_step(com.body)
        assert inner is not None
        return inner.wrap(lambda c, _pc=com.pc: _relabel(_pc, c))

    raise TypeError(f"not a command: {com!r}")


# ======================================================================
# Instructions and the per-thread table
# ======================================================================


class Instr:
    """One compiled step: everything invariant about a table state.

    ``keep`` maps successor ``vals`` slots to sources: a non-negative
    entry copies the current slot, ``-1`` takes the value read by this
    step.  Branch instructions carry two targets with their own keep
    maps plus a guard program; their arm is chosen at run time from the
    machine word (the only value-dependence the lowered machine has).
    """

    __slots__ = (
        "pc", "slot", "com", "label", "kind", "var", "is_branch",
        "wrval", "wrops", "wrfun",
        "next_pc", "keep",
        "guard_ops", "then_pc", "then_keep", "else_pc", "else_keep",
        "visible", "vis_then", "vis_else",
        "steps",
    )

    def __init__(self) -> None:
        self.slot = 0
        self.var = None
        self.is_branch = False
        self.wrval = None
        self.wrops = None
        self.wrfun = None
        self.next_pc = PC_TERM
        self.keep: Tuple[int, ...] = ()
        self.guard_ops = None
        self.then_pc = self.else_pc = PC_TERM
        self.then_keep = self.else_keep = ()
        self.visible = False
        self.vis_then = self.vis_else = False
        self.steps: dict = {}  # vals -> interned LoweredStep

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_branch:
            tgt = f"then={self.then_pc} else={self.else_pc}"
        else:
            tgt = f"next={self.next_pc}"
        return f"Instr(pc={self.pc}, {self.kind.value}, {tgt}, label={self.label})"


class ThreadTable:
    """The flat step table of one thread: ``instrs[pc]`` plus the entry."""

    __slots__ = ("instrs", "entry_pc")

    def __init__(self, instrs: List[Instr], entry_pc: int) -> None:
        self.instrs = instrs
        self.entry_pc = entry_pc


def _sig(com: Com) -> Tuple[int, bool]:
    """Control signature of a (symbolic) command — placeholder-blind."""
    return (program_counter(com), isinstance(com, Skip))


def lower_thread(com: Com) -> ThreadTable:
    """Compile one thread: every command is lowerable (see the module
    docstring for what a table state's identity is)."""
    index: Dict[Com, int] = {}
    coms: List[Com] = []
    instrs: List[Instr] = []
    pending: List[int] = []

    def intern_state(c: Com) -> int:
        if isinstance(c, Skip):
            return PC_TERM
        pc = index.get(c)
        if pc is None:
            pc = len(coms)
            index[c] = pc
            coms.append(c)
            instrs.append(Instr())
            pending.append(pc)
        return pc

    def intern_succ(raw: Com) -> Tuple[int, Tuple[int, ...]]:
        syms = com_syms(raw)
        if syms:
            keep = tuple(s.index for s in syms)
            mapping = {s: SymVal(j) for j, s in enumerate(syms)}
            raw = rename_com(raw, mapping)
        else:
            keep = ()
        return intern_state(raw), keep

    entry_pc = intern_state(com)

    while pending:
        pc = pending.pop()
        state = coms[pc]
        step = sym_step(state)
        assert step is not None  # Skip is never interned
        ins = instrs[pc]
        ins.pc = pc
        ins.com = state
        ins.label = program_counter(state)
        cur_sig = (ins.label, False)

        if step.op == "branch":
            ins.kind = ActionKind.TAU
            ins.is_branch = True
            ins.guard_ops = compile_ops(step.guard)
            ins.vis_then = _sig(step.then_succ) != cur_sig
            ins.vis_else = _sig(step.else_succ) != cur_sig
            ins.then_pc, ins.then_keep = intern_succ(step.then_succ)
            ins.else_pc, ins.else_keep = intern_succ(step.else_succ)
            continue

        ins.visible = _sig(step.succ) != cur_sig
        ins.next_pc, ins.keep = intern_succ(step.succ)

        if step.op == "tau":
            ins.kind = ActionKind.TAU
        elif step.op == "read":
            ins.kind = step.kind
            ins.var = step.var
        elif step.op == "write":
            ins.kind = step.kind
            ins.var = step.var
            if _has_sym_exp(step.wrexp):
                ins.wrops = compile_ops(step.wrexp)
            else:
                ins.wrval = eval_closed(step.wrexp)
        else:  # upd
            ins.kind = ActionKind.UPD
            ins.var = step.var
            if step.addk is None:
                ins.wrval = step.wrval
            else:
                ins.wrfun = lambda m, _k=step.addk: m + _k

    return ThreadTable(instrs, entry_pc)


__all__ = [
    "FRESH",
    "Instr",
    "PC_TERM",
    "SymVal",
    "ThreadTable",
    "com_syms",
    "compile_ops",
    "concretize",
    "eval_ops",
    "lower_thread",
    "rename_com",
    "sym_step",
]
