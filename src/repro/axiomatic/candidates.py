"""Bounded exhaustive enumeration of candidate executions.

This is the reproduction's substitute for the paper's Memalloy
mechanisation (Appendix E): Memalloy asks a SAT solver for a candidate
execution, up to a size bound, on which two memory models disagree; we
*enumerate* every candidate execution up to a size bound and evaluate
both models on each.  Same exhaustive-bounded-search semantics, smaller
feasible bound (pure Python vs SAT; see DESIGN.md "Substitutions").

A candidate execution (Definition C.1) satisfies RF-Complete, MO-Valid
and SB-Total but need *not* be consistent — the whole point is to also
generate inconsistent ones and check that the two axiomatisations reject
exactly the same set.

Enumeration proceeds in three phases with all symmetries that do not
affect model verdicts quotiented away:

1. **Skeletons** — thread assignment (restricted growth strings, so
   thread naming is canonical) and per-event (kind, variable, write
   value).  Read values are left open.  Variable naming can be made
   canonical too, with weights (``skeletons(..., up_to_renaming=True)``).
2. **rf** — every read picks a source write of the same variable
   (initialising writes included, the read itself included when it is an
   update whose written value could equal the value read — the self-rf
   shape that the RFI condition exists to reject); the read value is
   *defined* as the source's written value, making RF-Complete hold by
   construction.
3. **mo** — every permutation of each variable's program writes, with
   the initialising write first (MO-Valid by construction).

Candidates are enumerated as *bitmask rows* (:class:`Skeleton`): events
are indexed with the initialising writes first, and each relation is a
list of ``int`` successor masks.  ``sb`` is built once per thread
assignment and the ``mo`` orders (with ``mo ; mo``) once per writer
layout, so the axiomatic models can be judged on rows
(:mod:`repro.axiomatic.equivalence`); :func:`enumerate_candidates`
builds a ``C11State`` from the same rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import and_
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.c11.events import Event
from repro.c11.state import C11State
from repro.lang.actions import Action, ActionKind, Value, Var, wr as wr_action
from repro.lang.program import INIT_TID
from repro.relations.relation import Relation

#: Event kinds a candidate may contain (τ never appears in executions).
EVENT_KINDS: Tuple[ActionKind, ...] = (
    ActionKind.RD,
    ActionKind.RDA,
    ActionKind.WR,
    ActionKind.WRR,
    ActionKind.UPD,
)


@dataclass(frozen=True)
class CandidateSpace:
    """The finite domain candidates are drawn from.

    ``n_events`` counts *program* events (initialising writes are extra:
    one per variable, writing ``init_value``).
    """

    n_events: int
    variables: Tuple[Var, ...] = ("x",)
    values: Tuple[Value, ...] = (1,)
    max_threads: int = 2
    init_value: Value = 0
    kinds: Tuple[ActionKind, ...] = EVENT_KINDS

    def skeleton_options(self) -> List[Tuple[ActionKind, Var, Optional[Value]]]:
        """All (kind, var, write-value) choices for one event."""
        options: List[Tuple[ActionKind, Var, Optional[Value]]] = []
        for kind in self.kinds:
            for x in self.variables:
                if kind.is_write:
                    for v in self.values:
                        options.append((kind, x, v))
                else:
                    options.append((kind, x, None))
        return options


def restricted_growth_strings(n: int, max_blocks: int) -> Iterator[Tuple[int, ...]]:
    """Canonical thread assignments: partitions of ``n`` positions into at
    most ``max_blocks`` blocks, encoded so block labels first appear in
    increasing order (kills thread-renaming symmetry)."""
    if n == 0:
        yield ()
        return

    def rec(prefix: List[int], used: int) -> Iterator[Tuple[int, ...]]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(min(used + 1, max_blocks)):
            prefix.append(b)
            yield from rec(prefix, max(used, b + 1))
            prefix.pop()

    yield from rec([], 0)


# ----------------------------------------------------------------------
# Bitmask rows
# ----------------------------------------------------------------------

#: A relation over a candidate's events: bit ``b`` of ``rows[a]`` is set
#: iff ``(a, b)`` is in the relation.
Rows = List[int]

#: ``(mo, mo ; mo)`` rows for one modification order.
MoOrder = Tuple[Rows, Rows]

#: ``Id`` rows, long enough for any enumerable space (``map`` stops at
#: the shorter operand).
_DIAGONAL = tuple(1 << a for a in range(64))


def bits(mask: int) -> Iterator[int]:
    """The indices set in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def compose_rows(r: Sequence[int], s: Sequence[int]) -> Rows:
    """``r ; s``."""
    out = []
    for row in r:
        acc = 0
        while row:
            low = row & -row
            acc |= s[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def inverse_rows(r: Sequence[int]) -> Rows:
    """``r⁻¹``."""
    out = [0] * len(r)
    for a, row in enumerate(r):
        bit = 1 << a
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def closure_rows(r: Sequence[int]) -> Rows:
    """``r⁺``: each row grown by the rows it reaches."""
    out = []
    for row in r:
        reach = todo = row
        while todo:
            low = todo & -todo
            todo ^= low
            new = r[low.bit_length() - 1] & ~reach
            reach |= new
            todo |= new
        out.append(reach)
    return out


def irreflexive_rows(r: Sequence[int]) -> bool:
    """``irrefl(r)``."""
    return not any(map(and_, r, _DIAGONAL))


def irreflexive_seq_rows(r: Sequence[int], s_inverse: Sequence[int]) -> bool:
    """``irrefl(r ; s)``, given ``s⁻¹``, without materialising ``r ; s``:
    ``(a, a) ∈ r ; s`` iff some ``b`` has ``a r b`` and ``a s⁻¹ b``."""
    return not any(map(and_, r, s_inverse))


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------


class Skeleton:
    """One skeleton's candidates as rows (phase 1 fixed, rf and mo open).

    Index ``i < V`` is the initialising write of ``space.variables[i]``;
    index ``V + t - 1`` is the program event tagged ``t``.  The skeleton's
    candidates are every ``reads_from_choices() × mo_orders`` pair.
    """

    __slots__ = (
        "space", "tids", "kinds", "var_of", "wrvals", "sb", "sb_inverse",
        "reads", "sources", "mo_orders", "release", "acquire", "weight",
    )

    def __init__(
        self,
        space: CandidateSpace,
        tids: Tuple[int, ...],
        sb: Rows,
        sb_inverse: Rows,
        kinds: Tuple[ActionKind, ...],
        var_of: Tuple[int, ...],
        wrvals: Tuple[Optional[Value], ...],
        mo_cache: Dict[Tuple[Tuple[int, ...], ...], Tuple[MoOrder, ...]],
        weight: int = 1,
    ) -> None:
        self.space = space
        #: how many skeletons of the space this one stands for (see
        #: :func:`skeletons`' ``up_to_renaming``)
        self.weight = weight
        self.tids = tids
        self.sb = sb
        self.sb_inverse = sb_inverse
        self.kinds = kinds
        self.var_of = var_of
        self.wrvals = wrvals
        # Writers per variable, the initialiser first, then tag order.
        writers: List[List[int]] = [[x] for x in range(len(space.variables))]
        reads: List[int] = []
        release = acquire = 0
        for i in range(len(writers), len(kinds)):
            kind = kinds[i]
            if kind.is_write:
                writers[var_of[i]].append(i)
            if kind.is_read:
                reads.append(i)
            if kind.is_release:
                release |= 1 << i
            if kind.is_acquire:
                acquire |= 1 << i
        self.reads = tuple(reads)
        # Any writer on the variable, the read itself included when it is
        # an update (self-rf candidates exercise RFI).
        self.sources = tuple(
            tuple(w for w in writers[var_of[r]] if w != r or kinds[r].is_update)
            for r in reads
        )
        layout = tuple(tuple(ws) for ws in writers)
        mo_orders = mo_cache.get(layout)
        if mo_orders is None:
            mo_orders = mo_cache[layout] = _mo_orders(layout, len(kinds))
        self.mo_orders = mo_orders
        self.release = release
        self.acquire = acquire

    def reads_from_choices(self) -> Iterator[Tuple[int, ...]]:
        """Every rf choice: one source index per read, aligned with
        ``reads``."""
        return itertools.product(*self.sources)

    def size(self) -> int:
        """The number of candidates in this skeleton."""
        count = len(self.mo_orders)
        for sources in self.sources:
            count *= len(sources)
        return count

    def reads_from_rows(self, rf_pick: Sequence[int]) -> Tuple[Rows, Rows]:
        """``(rf, rf⁻¹)`` rows for one rf choice."""
        n = len(self.kinds)
        rf = [0] * n
        rf_inverse = [0] * n
        for r, w in zip(self.reads, rf_pick):
            rf[w] |= 1 << r
            rf_inverse[r] = 1 << w
        return rf, rf_inverse

    def state(self, rf_pick: Sequence[int], mo: Rows) -> C11State:
        """The ``C11State`` of the candidate ``(rf_pick, mo)``."""
        space = self.space
        src_of = dict(zip(self.reads, rf_pick))
        events: List[Event] = []
        for i, kind in enumerate(self.kinds):
            x = space.variables[self.var_of[i]]
            if i < len(space.variables):
                events.append(
                    Event(-(i + 1), wr_action(x, space.init_value), INIT_TID)
                )
                continue
            src = src_of.get(i)
            rv = None if src is None else self.wrvals[src]
            action = Action(kind, x, rdval=rv, wrval=self.wrvals[i])
            events.append(Event(i - len(space.variables) + 1, action, self.tids[i]))
        rf, _ = self.reads_from_rows(rf_pick)
        return C11State(
            events,
            _relation(self.sb, events),
            _relation(rf, events),
            _relation(mo, events),
        )


def _relation(rows: Sequence[int], events: Sequence[Event]) -> Relation:
    return Relation(
        (events[a], events[b]) for a, row in enumerate(rows) for b in bits(row)
    )


def _sb_rows(n_inits: int, threading: Tuple[int, ...]) -> Rows:
    """sb: initialisers before everything; program order within threads
    (tag order is per-thread program order)."""
    n = n_inits + len(threading)
    program = (1 << n) - (1 << n_inits)
    rows = [program] * n_inits
    for i, t in enumerate(threading):
        row = 0
        for j in range(i + 1, len(threading)):
            if threading[j] == t:
                row |= 1 << (n_inits + j)
        rows.append(row)
    return rows


def _mo_orders(
    writers: Tuple[Tuple[int, ...], ...], n: int
) -> Tuple[MoOrder, ...]:
    """Every MO-Valid order for a writer layout (per variable: the
    initialiser, then the program writers in any order), with ``mo ; mo``."""
    per_variable = [
        [(ws[0],) + perm for perm in itertools.permutations(ws[1:])]
        for ws in writers
    ]
    orders = []
    for chains in itertools.product(*per_variable):
        mo = [0] * n
        for chain in chains:
            later = 0
            for w in reversed(chain):
                mo[w] = later
                later |= 1 << w
        orders.append((mo, compose_rows(mo, mo)))
    return tuple(orders)


def _renamings(var_of: Sequence[int], n_variables: int) -> int:
    """The number of injective renamings of the variables ``var_of``
    uses, when it uses them in first-use order (0, then 1, ...); 0
    when it does not."""
    used = 0
    for x in var_of:
        if x == used:
            used += 1
        elif x > used:
            return 0
    return math.perm(n_variables, used)


def skeletons(
    space: CandidateSpace, up_to_renaming: bool = False
) -> Iterator[Skeleton]:
    """Every skeleton of ``space`` (phase 1), in enumeration order.

    ``up_to_renaming`` yields one skeleton per orbit under renaming the
    variables: those whose program events use variables in first-use
    order, each weighted by the injective renamings of the variables it
    uses (the orbit's size).  The space is symmetric in its variables —
    one ``init_value``, the same options on every variable — and every
    axiom is invariant under renaming, so weighted tallies over the
    quotient equal the full enumeration's.
    """
    n_inits = len(space.variables)
    var_index = {x: i for i, x in enumerate(space.variables)}
    options = [(kind, var_index[x], wv) for kind, x, wv in space.skeleton_options()]
    init_kinds = (ActionKind.WR,) * n_inits
    init_vars = tuple(range(n_inits))
    init_values = (space.init_value,) * n_inits
    mo_cache: Dict[Tuple[Tuple[int, ...], ...], Tuple[MoOrder, ...]] = {}

    for threading in restricted_growth_strings(space.n_events, space.max_threads):
        tids = (INIT_TID,) * n_inits + tuple(t + 1 for t in threading)
        sb = _sb_rows(n_inits, threading)
        sb_inverse = inverse_rows(sb)
        for combo in itertools.product(options, repeat=space.n_events):
            kinds, var_of, wrvals = zip(*combo) if combo else ((), (), ())
            weight = 1
            if up_to_renaming:
                weight = _renamings(var_of, n_inits)
                if not weight:
                    continue
            yield Skeleton(
                space,
                tids,
                sb,
                sb_inverse,
                init_kinds + kinds,
                init_vars + var_of,
                init_values + wrvals,
                mo_cache,
                weight,
            )


def enumerate_candidates(space: CandidateSpace) -> Iterator[C11State]:
    """Yield every candidate execution in ``space`` exactly once.

    Everything yielded satisfies Definition C.1 by construction — assert
    ``is_candidate_execution`` over samples in tests, not here (hot loop).
    """
    for skeleton in skeletons(space):
        for rf_pick in skeleton.reads_from_choices():
            for mo, _ in skeleton.mo_orders:
                yield skeleton.state(rf_pick, mo)


def count_candidates(space: CandidateSpace, limit: Optional[int] = None) -> int:
    """The number of candidates in the space (stops early at ``limit``),
    counted from the rows without building states."""
    count = 0
    for skeleton in skeletons(space):
        count += skeleton.size()
        if limit is not None and count >= limit:
            return limit
    return count
