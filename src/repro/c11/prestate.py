"""Pre-execution states and the ``→PE`` semantics (paper, Section 4.1).

The axiomatic route to C11 validity works in two phases: first build a
*pre-execution* — just events and sequenced-before, with reads returning
arbitrary values — then search for ``rf`` and ``mo`` relations making the
whole thing satisfy the axioms (Definition 4.3: the pre-execution is
*justifiable*).

A pre-execution step simply appends an event with the same ``+``
operator as Figure 3 and never constrains values, so
``(D, sb) --e-->PE (D', sb') ⟺ (D', sb') = (D, sb) + e``.
Steps of distinct threads commute (Proposition 4.1), which underpins the
permutation Lemma 4.7 used in the completeness proof.

Representation (DESIGN.md §11): exploration-built pre-executions store
``sb`` as per-thread ordered tuples plus the initialisation block and
carry their tag table / next tag forward, so the ``→PE`` hot path never
builds the O(n²) ``sb`` pair set; the :class:`Relation` view
materialises lazily for the justification search.  Hand-assembled
pre-executions (explicit ``sb``) keep the original representation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.c11.events import Event, Tag, init_events
from repro.lang.actions import Value, Var
from repro.lang.program import INIT_TID, Tid
from repro.relations.relation import Relation


class PreExecutionState:
    """A pre-execution state ``π = (D, sb)``."""

    __slots__ = (
        "events",
        "_sb",
        "_threads",
        "_inits",
        "_by_tag",
        "_next_tag",
        "_hash",
        "_canon_key",
        "_canon_ids",
        "program_events",
    )

    def __init__(self, events: Iterable[Event], sb: Relation = Relation.empty()):
        self.events: FrozenSet[Event] = frozenset(events)
        self._sb: Optional[Relation] = sb
        #: Sequence-backed sb (exploration-built states only): per-thread
        #: ordered tuples plus the initialisation block.
        self._threads: Optional[Dict[Tid, Tuple[Event, ...]]] = None
        self._inits: Tuple[Event, ...] = ()
        self._by_tag: Optional[Dict[Tag, Event]] = None
        self._next_tag: Optional[Tag] = None
        self._hash: Optional[int] = None
        #: Canonical-key memoization slots (see repro.interp.canon and
        #: repro.engine.keys), filled lazily / propagated by add_event.
        self._canon_key = None
        self._canon_ids = None
        #: program (non-initialising) events: the event bound's
        #: measure, kept so ``repro.engine.core.bound_cut`` is O(1)
        self.program_events: int = sum(1 for e in self.events if not e.is_init)

    @classmethod
    def _from_sequences(
        cls,
        events: FrozenSet[Event],
        threads: Dict[Tid, Tuple[Event, ...]],
        inits: Tuple[Event, ...],
        by_tag: Dict[Tag, Event],
        next_tag: Tag,
    ) -> "PreExecutionState":
        self = cls.__new__(cls)
        self.events = events
        self._sb = None
        self._threads = threads
        self._inits = inits
        self._by_tag = by_tag
        self._next_tag = next_tag
        self._hash = None
        self._canon_key = None
        self._canon_ids = None
        self.program_events = len(events) - len(inits)
        return self

    @property
    def sb(self) -> Relation:
        """Sequenced-before, materialised lazily from the sequences for
        exploration-built states (initialisers before every program
        event, per-thread total orders)."""
        if self._sb is None:
            from repro.c11.compact import sb_pairs_from

            self._sb = Relation(sb_pairs_from(self._inits, self._threads))
        return self._sb

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreExecutionState):
            return NotImplemented
        if self.events != other.events:
            return False
        if self._threads is not None and other._threads is not None:
            return self._threads == other._threads
        return self.sb == other.sb

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.events, self.sb))
        return self._hash

    def __repr__(self) -> str:
        return f"PreExecutionState(|D|={len(self.events)}, |sb|={len(self.sb)})"

    def add_event(self, e: Event) -> "PreExecutionState":
        """``(D, sb) + e`` — identical placement to the RA semantics."""
        if self._threads is not None and not e.is_init:
            if e.tag in self._by_tag:
                raise ValueError(f"tag {e.tag} already used")
            threads = dict(self._threads)
            mine = threads.get(e.tid, ())
            threads[e.tid] = mine + (e,)
            by_tag = dict(self._by_tag)
            by_tag[e.tag] = e
            child = PreExecutionState._from_sequences(
                self.events | {e},
                threads,
                self._inits,
                by_tag,
                max(self._next_tag, e.tag + 1),
            )
            self._propagate_canon_ids(child, e, len(mine), mine)
            return child
        if any(old.tag == e.tag for old in self.events):
            raise ValueError(f"tag {e.tag} already used")
        new_sb = self.sb.add_all(
            (old, e)
            for old in self.events
            if old.tid == e.tid or old.is_init
        )
        child = PreExecutionState(self.events | {e}, new_sb)
        if not e.is_init:
            mine = tuple(old for old in self.events if old.tid == e.tid)
            self._propagate_canon_ids(child, e, len(mine), mine)
        return child

    def _propagate_canon_ids(self, child, e, pos, mine) -> None:
        if self._canon_ids is None:
            return
        # Pre-execution identities order thread events by tag, so the
        # parent's identities survive only when e's tag is maximal in
        # its thread (always true for next_tag()-built exploration
        # states; hand-built states fall back to a fresh computation).
        if not mine or e.tag > max(old.tag for old in mine):
            ids = dict(self._canon_ids)
            ids[e] = ("e", e.tid, pos)
            child._canon_ids = ids
            key = self._canon_key
            if key is not None:
                # Pre-execution keys are `(events_part,)`: the child's
                # is the parent's with the new description inserted —
                # the same tuple surgery as C11State (DESIGN.md §11).
                from bisect import insort

                from repro.c11.compact import CachedKey

                parts = key.parts if type(key) is CachedKey else key
                merged = list(parts[0])
                insort(merged, e.described(ids[e]))
                child._canon_key = CachedKey((tuple(merged),))

    def next_tag(self) -> int:
        if self._next_tag is not None:
            return self._next_tag
        used = max((e.tag for e in self.events), default=0)
        return max(used, 0) + 1

    def event_by_tag(self, tag: Tag) -> Event:
        """Look up an event by its tag (O(1); the table is carried
        forward on exploration-built states, built once otherwise)."""
        if self._by_tag is None:
            self._by_tag = {e.tag: e for e in self.events}
        try:
            return self._by_tag[tag]
        except KeyError:
            raise KeyError(tag) from None

    def events_of(self, tid: Tid) -> Tuple[Event, ...]:
        """The events of thread ``tid`` in ``sb`` (= tag) order."""
        if self._threads is not None:
            if tid == INIT_TID:
                return self._inits
            return self._threads.get(tid, ())
        return tuple(
            sorted((e for e in self.events if e.tid == tid), key=lambda e: e.tag)
        )

    @property
    def init_writes(self) -> FrozenSet[Event]:
        return frozenset(e for e in self.events if e.is_init)

    @property
    def writes(self) -> FrozenSet[Event]:
        return frozenset(e for e in self.events if e.is_write)

    @property
    def reads(self) -> FrozenSet[Event]:
        return frozenset(e for e in self.events if e.is_read)

    def restricted_to(self, keep: Iterable[Event]) -> "PreExecutionState":
        """``π ↾ E`` (used when replaying prefixes in Theorem 4.8)."""
        kept = frozenset(keep)
        if not kept <= self.events:
            raise ValueError("restriction set must be a subset of D")
        return PreExecutionState(kept, self.sb.restrict_to(kept))


def initial_prestate(init_values: Mapping[Var, Value]) -> PreExecutionState:
    """The initial pre-execution: the initialising writes, no ``sb``."""
    inits = tuple(
        sorted(init_events(dict(init_values)), key=lambda e: e.tag)
    )
    return PreExecutionState._from_sequences(
        frozenset(inits),
        {},
        inits,
        {e.tag: e for e in inits},
        1,
    )
