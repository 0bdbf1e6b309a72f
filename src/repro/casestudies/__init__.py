"""The paper's case studies — and the scenario library grown around them.

The paper's own studies:

* :mod:`repro.casestudies.peterson` — Algorithm 1: Peterson's mutual
  exclusion with release-acquire annotations, its invariants (4)–(10)
  and Theorem 5.8, plus mutants that probe which annotations matter.
* :mod:`repro.casestudies.message_passing` — Example 5.7: the
  release/acquire message-passing idiom, its broken relaxed variant,
  and ``mp_pairs_program(n)``, n disjoint copies of it.

Extensions, each paired with a proof outline registered in
:data:`repro.verify.registry.PROOFS` (DESIGN.md §10):

* :mod:`repro.casestudies.token_ring` — a hand-off lock over an
  update-only variable (the lock the paper's bare ``swap`` supports).
* :mod:`repro.casestudies.spinlock` — the test-and-set spinlock, made
  expressible by the value-returning exchange ``r := x.swap(n)^RA``.
* :mod:`repro.casestudies.ticket_lock` — a FIFO ticket lock from the
  fetch-and-add RMW ``my := next.faa(1)^RA``.
* :mod:`repro.casestudies.seqlock` — a seqlock writer/reader pair:
  accepted snapshots are consistent (and the relaxed-payload variant
  demonstrates why the annotations are load-bearing).
* :mod:`repro.casestudies.barrier` — a flag-handshake barrier:
  Example 5.7's idiom doubled back on itself.
* :mod:`repro.casestudies.dekker` — Dekker's entry protocol, the
  *negative* study: provable under SC, refuted under RA.
"""

from repro.casestudies.peterson import (
    PETERSON_INIT,
    peterson_program,
    peterson_invariants,
    peterson_outline_sc,
    mutual_exclusion_violations,
    peterson_relaxed_turn,
    peterson_relaxed_flag_read,
)
from repro.casestudies.message_passing import (
    MP_INIT,
    message_passing_program,
    message_passing_broken,
    mp_data_invariant,
    mp_outline,
    mp_outline_valonly,
    mp_pairs_init,
    mp_pairs_program,
)
from repro.casestudies.token_ring import (
    TOKEN_INIT,
    token_ring_program,
    token_ring_violations,
    token_ring_outline,
)
from repro.casestudies.dekker import (
    DEKKER_INIT,
    dekker_entry_program,
    dekker_violations,
    dekker_outline,
)
from repro.casestudies.spinlock import (
    SPINLOCK_INIT,
    spinlock_program,
    spinlock_broken,
    spinlock_violations,
    spinlock_outline,
)
from repro.casestudies.ticket_lock import (
    TICKET_INIT,
    ticket_lock_program,
    ticket_lock_violations,
    ticket_lock_outline,
)
from repro.casestudies.seqlock import (
    SEQLOCK_INIT,
    seqlock_program,
    seqlock_relaxed_data,
    seqlock_violations,
    seqlock_outline,
)
from repro.casestudies.barrier import (
    BARRIER_INIT,
    barrier_program,
    barrier_violations,
    barrier_outline,
)

__all__ = [
    "PETERSON_INIT",
    "peterson_program",
    "peterson_invariants",
    "peterson_outline_sc",
    "mutual_exclusion_violations",
    "peterson_relaxed_turn",
    "peterson_relaxed_flag_read",
    "MP_INIT",
    "message_passing_program",
    "message_passing_broken",
    "mp_data_invariant",
    "mp_outline",
    "mp_outline_valonly",
    "mp_pairs_init",
    "mp_pairs_program",
    "TOKEN_INIT",
    "token_ring_program",
    "token_ring_violations",
    "token_ring_outline",
    "DEKKER_INIT",
    "dekker_entry_program",
    "dekker_violations",
    "dekker_outline",
    "SPINLOCK_INIT",
    "spinlock_program",
    "spinlock_broken",
    "spinlock_violations",
    "spinlock_outline",
    "TICKET_INIT",
    "ticket_lock_program",
    "ticket_lock_violations",
    "ticket_lock_outline",
    "SEQLOCK_INIT",
    "seqlock_program",
    "seqlock_relaxed_data",
    "seqlock_violations",
    "seqlock_outline",
    "BARRIER_INIT",
    "barrier_program",
    "barrier_violations",
    "barrier_outline",
]
