"""Message passing (Example 5.7) and its broken relaxed variant.

::

    Init: f = 0 ∧ d = 0
    thread 1:  1: d := 5;               thread 2:  1: while !f^A do skip;
               2: f :=^R 1;                        2: r := d;

The release on ``f`` paired with the acquiring read in the busy-wait
guard makes ``d =_2 5`` hold when thread 2 exits the loop (the paper's
proof uses NoMod, ModLast, WOrd then Transfer), so thread 2 always
consumes 5.  Dropping the release (``message_passing_broken``) lets
thread 2 read the stale ``d = 0``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.interp.config import Configuration
from repro.lang.actions import Value, Var
from repro.lang.builder import acq, assign, label, neg, seq, skip, var, while_
from repro.lang.program import Program
from repro.verify.assertions import DV, Implies, PCIn
from repro.verify.invariants import Invariant

MP_INIT: Dict[Var, Value] = {"d": 0, "f": 0, "r": 0}

#: The payload thread 1 publishes.
PAYLOAD: Value = 5


def message_passing_program(release: bool = True, acquire: bool = True) -> Program:
    """Example 5.7 (annotation knobs exposed for the broken variants)."""
    t1 = seq(
        label(1, assign("d", PAYLOAD)),
        label(2, assign("f", 1, release=release)),
    )
    guard_read = acq("f") if acquire else var("f")
    t2 = seq(
        label(1, while_(neg(guard_read), skip())),
        label(2, assign("r", var("d"))),
    )
    return Program.parallel(t1, t2)


def mp_pairs_init(n: int) -> Dict[Var, Value]:
    """Initial values of :func:`mp_pairs_program`: every ``d_i``, ``f_i``
    and ``r_i`` starts at 0."""
    return {f"{name}{i}": 0 for i in range(1, n + 1) for name in ("d", "f", "r")}


def mp_pairs_program(n: int) -> Program:
    """``n`` disjoint copies of Example 5.7, pair ``i`` on ``d_i``, ``f_i``
    and ``r_i``: threads ``2i - 1`` (producer) and ``2i`` (consumer).

    No two pairs share a location, so every step of one pair commutes
    with every step of another — the family on which a partial-order
    reduction can be measured against the unreduced search.
    """
    threads = []
    for i in range(1, n + 1):
        d, f, r = f"d{i}", f"f{i}", f"r{i}"
        threads.append(seq(
            label(1, assign(d, PAYLOAD)),
            label(2, assign(f, 1, release=True)),
        ))
        threads.append(seq(
            label(1, while_(neg(acq(f)), skip())),
            label(2, assign(r, var(d))),
        ))
    return Program.parallel(*threads)


def message_passing_broken() -> Program:
    """The relaxed-flag variant: no synchronisation, stale data possible."""
    return message_passing_program(release=False)


def mp_data_invariant() -> List[Invariant]:
    """The key proof obligation: at line 2 of thread 2, ``d =_2 5``."""
    return [
        Invariant(
            "thread 2 at line 2 ⟹ d =2 5",
            Implies(PCIn(2, (2,)), DV("d", 2, PAYLOAD)),
        )
    ]


def mp_outline():
    """Example 5.7 as a proof outline (the paper's proof, RA form).

    The producer's facts: past line 1 the datum is determinate for
    thread 1; past line 2 it is ordered before the flag (WOrd).  The
    consumer's fact is the transfer: at line 2 of thread 2 the datum is
    determinate *for the consumer* — the DV form of "no stale read".
    """
    from repro.verify.assertions import DV, VO
    from repro.verify.outline import ProofOutline

    outline = ProofOutline()
    outline.at("producer wrote payload", {1: (2,)}, DV("d", 1, PAYLOAD))
    outline.at("consumer sees payload", {2: (2,)}, DV("d", 2, PAYLOAD))
    return outline


def mp_outline_valonly():
    """The model-agnostic weakening of :func:`mp_outline`.

    ``value(d) = 5`` claims only that the globally newest write of ``d``
    is the payload — no thread-indexed knowledge — so the same outline
    checks under SC and RA alike (DESIGN.md §10's portability tier).
    """
    from repro.verify.assertions import ValEq
    from repro.verify.outline import ProofOutline

    outline = ProofOutline()
    outline.at("payload written before consume", {2: (2,)}, ValEq("d", PAYLOAD))
    return outline


def mp_result_violations(config: Configuration) -> List[str]:
    """Terminal-state check: the consumer must have stored the payload.

    Model-agnostic (works on RA states and SC stores alike).
    """
    from repro.litmus.registry import final_values

    if not config.is_terminated():
        return []
    value = final_values(config).get("r")
    if value != PAYLOAD:
        return [f"consumer stored {value}, expected {PAYLOAD}"]
    return []
