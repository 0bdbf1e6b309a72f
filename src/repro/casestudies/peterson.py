"""Peterson's mutual exclusion with release-acquire (Algorithm 1).

::

    Init: flag1 = false ∧ flag2 = false ∧ turn = 1

    thread t (other thread t̂):
    2:  flag_t := true                 (relaxed)
    3:  turn.swap(t̂)^RA
    4:  while (flag_t̂ = true)^A ∧ turn = t̂ do skip
    5:  critical section
    6:  flag_t :=^R false              (then back to line 2)

The threads loop forever (Appendix D's Case 5 has ``pc: 6 → 2``).  The
file also provides the paper's invariants (4)–(10) as assertion objects,
the mutual-exclusion check of Theorem 5.8 and two mutants:

* :func:`peterson_relaxed_turn` — line 3 replaced by a *relaxed write*
  ``turn := t̂``: no synchronisation, no update-atomicity; mutual
  exclusion fails (the paper's point (1) in Example 3.6).
* :func:`peterson_relaxed_flag_read` — line 4's flag read made relaxed:
  the *operational* behaviour still maintains mutual exclusion (the
  second swapper *encounters* the other flag via the ``sw`` of the
  swap), but invariant (8) can no longer be established by the AcqRd /
  Transfer rules — separating "true" from "provable in Figure 4".
"""

from __future__ import annotations

from typing import Dict, List

from repro.interp.config import Configuration
from repro.lang.actions import Value, Var
from repro.lang.builder import (
    acq,
    and_,
    assign,
    eq,
    label,
    loop_forever,
    seq,
    skip,
    swap,
    var,
    while_,
)
from repro.lang.program import Program, Tid
from repro.verify.assertions import DV, Implies, Or, PCIn, UpdateOnly, VO
from repro.verify.invariants import Invariant

TRUE: Value = 1
FALSE: Value = 0

FLAG: Dict[Tid, Var] = {1: "flag1", 2: "flag2"}
TURN: Var = "turn"

#: Algorithm 1's initialisation: both flags down, thread 1 has the turn.
PETERSON_INIT: Dict[Var, Value] = {"flag1": FALSE, "flag2": FALSE, "turn": 1}

#: Label used for the critical section (line 5 of Algorithm 1).
CRITICAL = 5


def _other(t: Tid) -> Tid:
    return 3 - t


def peterson_thread(
    t: Tid,
    turn_is_swap: bool = True,
    flag_read_acquire: bool = True,
    flag_release: bool = True,
    once: bool = False,
) -> object:
    """One Peterson thread, with the synchronisation knobs exposed."""
    other = _other(t)
    flag_other = acq(FLAG[other]) if flag_read_acquire else var(FLAG[other])
    set_turn = (
        swap(TURN, other) if turn_is_swap else assign(TURN, other)
    )
    body = seq(
        label(2, assign(FLAG[t], TRUE)),
        label(3, set_turn),
        label(4, while_(and_(eq(flag_other, TRUE), eq(var(TURN), other)), skip())),
        label(CRITICAL, skip()),
        label(6, assign(FLAG[t], FALSE, release=flag_release)),
    )
    return body if once else loop_forever(body)


def peterson_program(once: bool = False) -> Program:
    """Algorithm 1 exactly as the paper gives it."""
    return Program.of(
        {1: peterson_thread(1, once=once), 2: peterson_thread(2, once=once)}
    )


def peterson_relaxed_turn(once: bool = False) -> Program:
    """Mutant: line 3 is a relaxed write (no RMW, no synchronisation)."""
    return Program.of(
        {
            1: peterson_thread(1, turn_is_swap=False, once=once),
            2: peterson_thread(2, turn_is_swap=False, once=once),
        }
    )


def peterson_relaxed_flag_read(once: bool = False) -> Program:
    """Mutant: line 4's flag read is relaxed instead of acquiring."""
    return Program.of(
        {
            1: peterson_thread(1, flag_read_acquire=False, once=once),
            2: peterson_thread(2, flag_read_acquire=False, once=once),
        }
    )


# ----------------------------------------------------------------------
# Theorem 5.8 and the invariants
# ----------------------------------------------------------------------


def in_critical_section(config: Configuration, t: Tid) -> bool:
    """Whether thread ``t`` is at line 5."""
    return config.pc(t) == CRITICAL


def mutual_exclusion_violations(config: Configuration) -> List[str]:
    """Theorem 5.8's property as an exploration hook: both threads at
    line 5 is a violation.  The label tuple rules out almost every
    configuration before any per-thread lookup."""
    if (
        config.program.labels.count(CRITICAL) > 1
        and in_critical_section(config, 1)
        and in_critical_section(config, 2)
    ):
        return ["mutual-exclusion: pc1 = pc2 = 5"]
    return []


def peterson_invariants() -> List[Invariant]:
    """Invariants (4)–(10) of Section 5.2, one assertion object each.

    Numbering follows the paper; the per-thread families are expanded
    for t ∈ {1, 2} (with t̂ the other thread).
    """
    invariants: List[Invariant] = [
        Invariant("(4) turn update-only", UpdateOnly(TURN)),
        Invariant(
            "(5) turn =1 2 ∨ turn =2 1",
            Or(DV(TURN, 1, 2), DV(TURN, 2, 1)),
        ),
    ]
    for t in (1, 2):
        other = _other(t)
        invariants.extend(
            [
                Invariant(
                    f"(6) t{t}: pc∈{{3..6}} ⟹ flag{t} ={t} true",
                    Implies(PCIn(t, (3, 4, 5, 6)), DV(FLAG[t], t, TRUE)),
                ),
                Invariant(
                    f"(7) t{t}: pc∈{{4..6}} ⟹ flag{t} → turn",
                    Implies(PCIn(t, (4, 5, 6)), VO(FLAG[t], TURN)),
                ),
                Invariant(
                    f"(8) t{t}: both in {{4..6}} ⟹ flag{other} ={t} true ∨ turn ={other} {t}",
                    Implies(
                        PCIn(t, (4, 5, 6)) & PCIn(other, (4, 5, 6)),
                        Or(DV(FLAG[other], t, TRUE), DV(TURN, other, t)),
                    ),
                ),
                Invariant(
                    f"(9) t{t}: pc{t}=5 ∧ pc{other}∈{{4..6}} ⟹ turn ={other} {t}",
                    Implies(
                        PCIn(t, (CRITICAL,)) & PCIn(other, (4, 5, 6)),
                        DV(TURN, other, t),
                    ),
                ),
                Invariant(
                    f"(10) t{t}: pc=2 ⟹ flag{t} ={t} false",
                    Implies(PCIn(t, (2,)), DV(FLAG[t], t, FALSE)),
                ),
            ]
        )
    return invariants


def theorem_5_8(config: Configuration) -> bool:
    """``P.pc1 ≠ 5 ∨ P.pc2 ≠ 5`` — the mutual exclusion property."""
    return not (in_critical_section(config, 1) and in_critical_section(config, 2))


def peterson_outline_sc():
    """Peterson under *sequential consistency* — the coarse outline.

    The paper's point is that invariants (4)–(10) need weak-memory
    assertions; under SC the conventional argument suffices and is
    phrased entirely in model-agnostic facts: flags are up throughout
    the protocol, the turn stays in range, and mutual exclusion holds.
    Checking the same algorithm under two models through one workbench
    front door is what ``repro verify`` is for (DESIGN.md §10).
    """
    from repro.verify.assertions import And, Not_, Or, PCIn, ValEq
    from repro.verify.outline import ProofOutline

    outline = ProofOutline()
    outline.everywhere(
        "mutual exclusion",
        Not_(And(PCIn(1, (CRITICAL,)), PCIn(2, (CRITICAL,)))),
    )
    outline.everywhere("turn in range", Or(ValEq(TURN, 1), ValEq(TURN, 2)))
    for t in (1, 2):
        outline.at(
            f"t{t} flag up in protocol", {t: (4, CRITICAL, 6)},
            ValEq(FLAG[t], TRUE),
        )
    return outline
