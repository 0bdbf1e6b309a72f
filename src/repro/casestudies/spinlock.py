"""A test-and-set spinlock — the lock C11 programmers actually write.

The paper's bare ``swap`` discards the value it reads, which is why the
original extension case study was a token hand-off lock
(:mod:`repro.casestudies.token_ring`).  With the value-returning
exchange ``r := lock.swap(1)^RA`` (DESIGN.md §10 — same ``updRA``
action, the read value just flows into a register store) the classic
test-and-set acquire is expressible::

    Init: lock = 0 ∧ r1 = 0 ∧ r2 = 0

    thread t:
    2:  r_t := lock.swap(1)^RA
    3:  while r_t ≠ 0 do r_t := lock.swap(1)^RA
    5:  critical section
    6:  lock :=^R 0

A thread owns the lock exactly when its exchange *read 0*.  Mutual
exclusion hinges on RMW atomicity (Lemma 5.6's machinery): updates on
``lock`` are mo-adjacent to the write they read, so at most one
exchange reads any given 0-write — the initialising write or a
release at line 6 — and a release only happens after the owner leaves.
The failure mode is equally expressible: replace the atomic exchange
by a read-then-write pair (:func:`spinlock_broken`) and two threads can
both read 0 before either writes 1.
"""

from __future__ import annotations

from typing import Dict, List

from repro.interp.config import Configuration
from repro.lang.actions import Value, Var
from repro.lang.builder import assign, eq, if_, label, ne, seq, skip, swap, var, while_
from repro.lang.program import Program, Tid

LOCK: Var = "lock"

#: One result register per thread (registers are ordinary shared
#: variables written by exactly one thread, as in the litmus suite).
REG: Dict[Tid, Var] = {1: "r1", 2: "r2"}

SPINLOCK_INIT: Dict[Var, Value] = {LOCK: 0, "r1": 0, "r2": 0}

#: Critical-section label.
CRITICAL = 5


def spinlock_thread(t: Tid, atomic: bool = True) -> object:
    """One thread: test-and-set acquire, critical section, release.

    ``atomic=False`` builds the broken variant whose "test-and-set" is a
    relaxed read followed by a store — the interleaving bug every
    textbook warns about, visible here as a mutual-exclusion violation.
    """
    r = REG[t]
    if atomic:
        tas = swap(LOCK, 1, reg=r)
    else:
        tas = seq(assign(r, var(LOCK)), assign(LOCK, 1))
    return seq(
        label(2, tas),
        label(3, while_(ne(var(r), 0), tas)),
        label(CRITICAL, skip()),
        label(6, assign(LOCK, 0, release=True)),
    )


def spinlock_program(atomic: bool = True) -> Program:
    """Two threads racing one test-and-set lock (one acquisition each)."""
    return Program.of(
        {1: spinlock_thread(1, atomic), 2: spinlock_thread(2, atomic)}
    )


def spinlock_broken() -> Program:
    """The non-atomic mutant: read-then-write instead of an exchange."""
    return spinlock_program(atomic=False)


def in_critical_section(config: Configuration, t: Tid) -> bool:
    """Whether ``t`` holds the lock (critical section or releasing)."""
    return config.pc(t) in (CRITICAL, 6)


def spinlock_violations(config: Configuration) -> List[str]:
    """Mutual exclusion over the lock-holding region {5, 6}."""
    labels = config.program.labels
    if (
        labels.count(CRITICAL) + labels.count(6) > 1
        and in_critical_section(config, 1)
        and in_critical_section(config, 2)
    ):
        return ["mutual-exclusion: both threads hold the TAS lock"]
    return []


def spinlock_outline():
    """The proof outline: why test-and-set excludes.

    * the holder's exchange read 0 (its register is determinately 0 —
      the winner's ticket);
    * while anyone holds the lock its current value is 1 (the holder
      wrote 1, spinners only ever overwrite 1 with 1);
    * mutual exclusion itself, as a pc-occupancy invariant.
    """
    from repro.verify.assertions import DV, And, Not_, PCIn, ValEq
    from repro.verify.outline import ProofOutline

    outline = ProofOutline()
    outline.everywhere(
        "mutual exclusion",
        Not_(And(PCIn(1, (CRITICAL, 6)), PCIn(2, (CRITICAL, 6)))),
    )
    for t in (1, 2):
        outline.at(
            f"holder t{t} read 0", {t: (CRITICAL, 6)}, DV(REG[t], t, 0)
        )
        outline.at(
            f"lock taken while t{t} holds", {t: (CRITICAL, 6)}, ValEq(LOCK, 1)
        )
    return outline
