"""A ticket lock — fair FIFO mutual exclusion from fetch-and-add.

The classic shape (Linux's original spinlock, MCS's little sibling)::

    Init: next = 0 ∧ serving = 0 ∧ my1 = 0 ∧ my2 = 0

    thread t:
    2:  my_t := next.faa(1)^RA          take a ticket
    3:  while (serving^A ≠ my_t) do skip
    5:  critical section
    6:  serving :=^R my_t + 1           call the next ticket

The ticket grab needs an RMW whose *write value depends on the value
read* — the ``faa`` extension of DESIGN.md §10 (one ``updRA(next, m,
m+1)`` action, so all of Section 5's update machinery applies).  The
correctness argument is the paper's own update-only story: ``next`` is
update-only (only ``faa`` touches it), so by Lemma 5.6 its updates are
totally ordered and every thread draws a *distinct* ticket; a thread
enters only after an acquiring read of ``serving`` equal to its ticket,
and ``serving`` only ever advances past a ticket when its holder
releases.
"""

from __future__ import annotations

from typing import Dict, List

from repro.interp.config import Configuration
from repro.lang.actions import Value, Var
from repro.lang.builder import acq, add, assign, faa, label, ne, seq, skip, var, while_
from repro.lang.program import Program, Tid

NEXT: Var = "next"
SERVING: Var = "serving"

#: Per-thread ticket register.
TICKET: Dict[Tid, Var] = {1: "my1", 2: "my2"}

TICKET_INIT: Dict[Var, Value] = {NEXT: 0, SERVING: 0, "my1": 0, "my2": 0}

#: Critical-section label.
CRITICAL = 5


def ticket_thread(t: Tid) -> object:
    """One participant: draw a ticket, wait to be served, pass the baton."""
    my = TICKET[t]
    return seq(
        label(2, faa(NEXT, 1, reg=my)),
        label(3, while_(ne(acq(SERVING), var(my)), skip())),
        label(CRITICAL, skip()),
        label(6, assign(SERVING, add(var(my), 1), release=True)),
    )


def ticket_lock_program() -> Program:
    """Two threads, one acquisition each, through one ticket lock."""
    return Program.of({1: ticket_thread(1), 2: ticket_thread(2)})


def in_critical_section(config: Configuration, t: Tid) -> bool:
    """Whether ``t`` is being served (critical section or releasing)."""
    return config.pc(t) in (CRITICAL, 6)


def ticket_lock_violations(config: Configuration) -> List[str]:
    """Mutual exclusion over the serving region {5, 6}."""
    program = config.program
    labels = program.labels
    if labels.count(CRITICAL) + labels.count(6) > 1:
        inside = [
            t for t, pc in zip(program.tids, labels) if pc in (CRITICAL, 6)
        ]
        return [f"mutual-exclusion: threads {inside} share the ticket lock"]
    return []


def ticket_lock_outline():
    """The proof outline: distinct tickets + now-serving agreement.

    * ``next`` is update-only — the Lemma 5.6 hypothesis that makes the
      ticket draws totally ordered (hence distinct);
    * while ``t`` is served, the current ``serving`` value equals its
      ticket (nobody advances the counter under the holder);
    * mutual exclusion itself, as a pc-occupancy invariant.
    """
    from repro.verify.assertions import And, Not_, PCIn, UpdateOnly, VarsEq
    from repro.verify.outline import ProofOutline

    outline = ProofOutline()
    outline.everywhere("next update-only", UpdateOnly(NEXT))
    outline.everywhere(
        "mutual exclusion",
        Not_(And(PCIn(1, (CRITICAL, 6)), PCIn(2, (CRITICAL, 6)))),
    )
    for t in (1, 2):
        outline.at(
            f"t{t} served on its ticket", {t: (CRITICAL, 6)},
            VarsEq(SERVING, TICKET[t]),
        )
    return outline
