"""Dekker's mutual exclusion — a *negative* case study under RA.

Dekker's algorithm (simplified first-attempt form) relies on each thread
seeing the other's flag before entering::

    thread t:
    2:  flag_t := true
    3:  if (flag_t̂ = false)  enter critical section

Under sequential consistency the two flag writes and reads interleave,
so at most one thread can see the other's flag still down *after both
raised theirs* — with the full turn-based protocol this yields mutual
exclusion.  Under release-acquire C11 it is *unfixable without stronger
synchronisation*: the store-buffering shape lets both threads read the
other's flag as false (neither has *encountered* the other's write), and
no release/acquire annotation on the flags removes that execution — SB
is allowed even fully release/acquire-annotated (litmus ``SB+rel-acq``).

The paper's Peterson version works precisely because the ``turn`` RMW
arbitrates: updates to one variable are hb-totally-ordered.  This module
provides the Dekker entry protocol so the failure is demonstrable and
contrastable (tests + E10 ablation):

* :func:`dekker_entry_program` — flags only, both threads try to enter.
* mutual exclusion **fails under RA** (even with release/acquire flags),
  **holds under SC** for the one-shot entry protocol.
"""

from __future__ import annotations

from typing import Dict, List

from repro.interp.config import Configuration
from repro.lang.actions import Value, Var
from repro.lang.builder import assign, eq, if_, label, seq, skip, var, acq
from repro.lang.program import Program, Tid

DEKKER_INIT: Dict[Var, Value] = {"flag1": 0, "flag2": 0}

#: Critical-section label.
CRITICAL = 5


def dekker_thread(t: Tid, release_acquire: bool = False) -> object:
    """One thread of the entry protocol (optionally fully annotated)."""
    other = 3 - t
    read_other = acq(f"flag{other}") if release_acquire else var(f"flag{other}")
    return seq(
        label(2, assign(f"flag{t}", 1, release=release_acquire)),
        label(
            3,
            if_(
                eq(read_other, 0),
                label(CRITICAL, skip()),  # enter the critical section
                label(6, skip()),  # back off
            ),
        ),
    )


def dekker_entry_program(release_acquire: bool = False) -> Program:
    """Both threads race the entry protocol once."""
    return Program.of(
        {
            1: dekker_thread(1, release_acquire),
            2: dekker_thread(2, release_acquire),
        }
    )


def in_critical_section(config: Configuration, t: Tid) -> bool:
    return config.pc(t) == CRITICAL


def dekker_violations(config: Configuration) -> List[str]:
    """Both threads at the critical label — the SB failure mode."""
    if (
        config.program.labels.count(CRITICAL) > 1
        and in_critical_section(config, 1)
        and in_critical_section(config, 2)
    ):
        return ["mutual-exclusion: both Dekker threads entered"]
    return []


def dekker_outline():
    """The entry protocol's proof outline — *deliberately* model-bound.

    The assertions are all model-agnostic (pc occupancy and current
    values, no thread-indexed determinacy), so the same outline object
    checks under both models — and the verdict flips:

    * under **SC** every obligation discharges: a thread at the guard
      (pc 3) has its flag up, so whichever thread reads *second* sees
      the other's flag and backs off;
    * under **RA** the store-buffering execution lets both threads read
      the other's flag as 0 and the mutual-exclusion obligation fails —
      the workbench localises the failing transition, which is exactly
      the paper's "conventional reasoning is unsound here" point.

    The registry therefore pins this outline to the SC model; the RA
    refutation is a regression test (and the reason the protocol is a
    *negative* case study above).
    """
    from repro.verify.assertions import And, Not_, PCIn, ValEq
    from repro.verify.outline import ProofOutline

    outline = ProofOutline()
    outline.everywhere(
        "mutual exclusion",
        Not_(And(PCIn(1, (CRITICAL,)), PCIn(2, (CRITICAL,)))),
    )
    for t in (1, 2):
        outline.at(
            f"t{t} flag raised at the guard", {t: (3, CRITICAL, 6)},
            ValEq(f"flag{t}", 1),
        )
    return outline
