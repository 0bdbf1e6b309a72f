"""A token hand-off lock — the extension case study.

The paper's language gives ``swap`` no return value, so a test-and-set
spinlock is inexpressible; what *is* expressible is a hand-off (ticket
ring) lock over an **update-only** variable, which exercises exactly the
machinery Section 5 builds for Peterson's ``turn``:

::

    Init: token = 1
    thread t:
    2:  while token ≠ t do skip       (acquiring read of token)
    3:  critical section
    4:  token.swap(next(t))^RA

The token only ever changes by RMW updates, so it is update-only; by
Lemma 5.6 every swap lands mo-last, and the updates are totally ordered
by ``hb``.  A thread enters its critical section only after an acquiring
read of ``token = t``, whose source is either the initialising write or
the releasing update of the predecessor — either way sb/hb-after the
predecessor left its critical section.  Hence mutual exclusion.
"""

from __future__ import annotations

from typing import Dict, List

from repro.interp.config import Configuration
from repro.lang.actions import Value, Var
from repro.lang.builder import acq, eq, label, ne, seq, skip, swap, while_
from repro.lang.program import Program, Tid
from repro.verify.assertions import UpdateOnly
from repro.verify.invariants import Invariant

TOKEN: Var = "token"
TOKEN_INIT: Dict[Var, Value] = {TOKEN: 1}

#: Critical-section label.
CRITICAL = 3


def token_thread(t: Tid, n_threads: int, rounds: int = 1) -> object:
    """One participant: wait for the token, enter, pass it on."""
    nxt = t % n_threads + 1
    round_body = seq(
        label(2, while_(ne(acq(TOKEN), t), skip())),
        label(CRITICAL, skip()),
        label(4, swap(TOKEN, nxt)),
    )
    body = round_body
    for _ in range(rounds - 1):
        body = seq(body, round_body)
    return body


def token_ring_program(n_threads: int = 2, rounds: int = 1) -> Program:
    """``n_threads`` participants passing one token around."""
    return Program.of(
        {t: token_thread(t, n_threads, rounds) for t in range(1, n_threads + 1)}
    )


def in_critical_section(config: Configuration, t: Tid) -> bool:
    return config.pc(t) == CRITICAL


def token_ring_violations(config: Configuration) -> List[str]:
    """Mutual exclusion over all participants.

    Reads the program's pc-label tuple (one per machine state) and names
    the threads only when two or more share the critical label.
    """
    program = config.program
    labels = program.labels
    if labels.count(CRITICAL) > 1:
        inside = [t for t, pc in zip(program.tids, labels) if pc == CRITICAL]
        return [f"mutual-exclusion: threads {inside} all at line {CRITICAL}"]
    return []


def token_ring_invariants() -> List[Invariant]:
    """The update-only property the verification hinges on."""
    return [Invariant("token update-only", UpdateOnly(TOKEN))]


def token_ring_outline(n_threads: int = 2):
    """The hand-off argument as a proof outline (DESIGN.md §10).

    * the token is update-only (Lemma 5.6: its updates are totally
      ordered, so there is one coherent hand-off sequence);
    * while a thread is in its critical section or handing off, the
      token's current value is *its* id — the predecessor's release is
      what let it in, and nobody else may swap until it does;
    * mutual exclusion over the hold region {3, 4}, as pc occupancy.
    """
    from repro.verify.assertions import Not_, PCIn, UpdateOnly as UO, ValEq, all_of
    from repro.verify.outline import ProofOutline

    hold = (CRITICAL, 4)
    outline = ProofOutline()
    outline.everywhere("token update-only", UO(TOKEN))
    for t in range(1, n_threads + 1):
        outline.at(f"t{t} holds the token", {t: hold}, ValEq(TOKEN, t))
        for u in range(t + 1, n_threads + 1):
            outline.everywhere(
                f"mutual exclusion t{t}/t{u}",
                Not_(all_of([PCIn(t, hold), PCIn(u, hold)])),
            )
    return outline
