"""C11 states ``σ = ((D, sb), rf, mo)`` and their derived orders.

Definition 3.1: a C11 state is a set of events ``D`` together with

* ``sb`` — sequenced-before: total per thread, initialising writes first;
* ``rf`` — reads-from: ``Wr × Rd``, justifying every read value;
* ``mo`` — modification order: total per variable over the writes.

Derived orders (Section 3.1)::

    sw  = rf ∩ (WrR × RdA)          synchronises-with
    hb  = (sb ∪ sw)+                 happens-before
    fr  = (rf⁻¹ ; mo) \\ Id          from-read ("reads-before")
    eco = (fr ∪ mo ∪ rf)+            extended coherence order

States are immutable value objects; transitions build new states via
:meth:`C11State.add_event` / :meth:`C11State.with_rf` /
:meth:`C11State.insert_mo_after`.

Representation (DESIGN.md §11): states grown from
:func:`initial_state` carry a :class:`~repro.c11.compact.CompactOrders`
— interned event indices, per-thread/per-variable order *sequences*, an
``rf`` int map and per-event ``hb`` bitmasks — maintained incrementally
by the successor constructors, so the exploration hot path never builds
a pair set or runs a closure.  The :class:`Relation` views ``sb``,
``rf``, ``mo`` (and the derived ``sw``/``hb``/``fr``/``eco``) are
materialised lazily, only for the axiomatic/checking consumers that do
pair algebra.  States assembled by hand from explicit relations keep
the original representation and code paths throughout.
"""

from __future__ import annotations

from bisect import insort
from time import perf_counter as _clock
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.c11.compact import ORDER_TIMER, CachedKey, CompactOrders
from repro.c11.events import Event, Tag, init_events
from repro.lang.actions import Value, Var
from repro.lang.program import INIT_TID, Tid
from repro.relations.relation import Relation


class C11State:
    """An immutable C11 state with cached derived orders."""

    __slots__ = (
        "_events",
        "_sb",
        "_rf",
        "_mo",
        "fast_eco",
        "_compact",
        "_sw",
        "_hb",
        "_fr",
        "_eco",
        "_writes_by_var",
        "_events_by_tid",
        "_by_tag",
        "_last",
        "_hash",
        "_canon_key",
        "_canon_ids",
        "_ra_trans",
        "program_events",
    )

    def __init__(
        self,
        events: Iterable[Event],
        sb: Relation = Relation.empty(),
        rf: Relation = Relation.empty(),
        mo: Relation = Relation.empty(),
        fast_eco: bool = False,
    ) -> None:
        self._events: Optional[FrozenSet[Event]] = frozenset(events)
        self._sb: Optional[Relation] = sb
        self._rf: Optional[Relation] = rf
        self._mo: Optional[Relation] = mo
        #: provenance flag: states built by the RA event semantics satisfy
        #: update atomicity by construction, so ``eco`` may use Lemma
        #: C.9's closed form (≈8× cheaper than the transitive closure —
        #: see the E10 ablation).  Hand-assembled states (candidates,
        #: justifications) keep the definitional closure.
        self.fast_eco: bool = fast_eco
        #: The incremental representation (DESIGN.md §11); ``None`` for
        #: hand-assembled states, which use the relations directly.
        self._compact: Optional[CompactOrders] = None
        #: program (non-initialising) events: the event bound's
        #: measure, kept so ``repro.engine.core.bound_cut`` is O(1)
        self.program_events: int = sum(
            1 for e in self._events if not e.is_init
        )
        self._init_lazy()

    def _init_lazy(self) -> None:
        self._sw: Optional[Relation] = None
        self._hb: Optional[Relation] = None
        self._fr: Optional[Relation] = None
        self._eco: Optional[Relation] = None
        self._writes_by_var: Optional[Dict[Var, List[Event]]] = None
        self._events_by_tid: Optional[Dict[Tid, List[Event]]] = None
        self._by_tag: Optional[Dict[Tag, Event]] = None
        self._last: Dict[Var, Optional[Event]] = {}
        self._hash: Optional[int] = None
        #: Canonical-key memoization (see repro.interp.canon and
        #: repro.engine.keys): the full key, computed at most once per
        #: object, and the event-identity map, propagated incrementally
        #: from parent to child by the successor constructors below.
        self._canon_key: Optional[object] = None
        self._canon_ids: Optional[Dict[Event, tuple]] = None
        #: Per-object memo of the RA model's transition lists, keyed by
        #: ``(tid, interned step)`` (see RAMemoryModel.transitions_list);
        #: the explorers drop it once the search no longer queues this
        #: state (repro.engine.core.MemoLifetime).
        self._ra_trans: Optional[dict] = None

    @classmethod
    def _from_compact(
        cls, events: Optional[FrozenSet[Event]], compact: CompactOrders,
        fast_eco: bool,
    ) -> "C11State":
        """A state whose event set and relations materialise lazily from
        ``compact`` (``events=None`` on the successor hot path — the
        interned sequence already holds them)."""
        self = cls.__new__(cls)
        self._events = events
        self._sb = None
        self._rf = None
        self._mo = None
        self.fast_eco = fast_eco
        self._compact = compact
        self.program_events = len(compact.events_seq) - len(compact.inits)
        self._init_lazy()
        return self

    # ------------------------------------------------------------------
    # Event-set and Relation views (lazy for compact-built states)
    # ------------------------------------------------------------------

    @property
    def events(self) -> FrozenSet[Event]:
        """``D`` — the event set (materialised lazily from the interned
        sequence on compact-built states, so the successor hot path
        never rebuilds a frozenset)."""
        if self._events is None:
            self._events = frozenset(self._compact.events_seq)
        return self._events

    @property
    def sb(self) -> Relation:
        """Sequenced-before, as a pair-set :class:`Relation` view."""
        if self._sb is None:
            self._sb = Relation(self._compact.sb_pairs())
        return self._sb

    @property
    def rf(self) -> Relation:
        """Reads-from, as a pair-set :class:`Relation` view."""
        if self._rf is None:
            self._rf = Relation(self._compact.rf_pairs())
        return self._rf

    @property
    def mo(self) -> Relation:
        """Modification order, as a pair-set :class:`Relation` view."""
        if self._mo is None:
            self._mo = Relation(self._compact.mo_pairs())
        return self._mo

    @property
    def compact(self) -> Optional[CompactOrders]:
        """The incremental representation, when this state carries one
        and is not mid-step (a write appended but not yet mo-placed)."""
        c = self._compact
        if c is not None and not c.unplaced:
            return c
        return None

    # ------------------------------------------------------------------
    # Value-object protocol
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, C11State):
            return NotImplemented
        if self is other:
            return True
        if self.events != other.events:
            return False
        mine, theirs = self._compact, other._compact
        if mine is not None and theirs is not None:
            # Content comparison over the sequence forms: with equal
            # event sets, equal thread sequences determine sb, and the
            # mo sequences / rf event maps determine the relations.
            return (
                mine.threads == theirs.threads
                and mine.mo == theirs.mo
                and frozenset(mine.rf_pairs()) == frozenset(theirs.rf_pairs())
                and mine.unplaced == theirs.unplaced
            )
        return (
            self.sb == other.sb
            and self.rf == other.rf
            and self.mo == other.mo
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.events, self.sb, self.rf, self.mo))
        return self._hash

    def __getstate__(self):
        # Checkpoints pickle frontier states (DESIGN.md §16).  Only the
        # structural core may cross the boundary: ``_hash`` bakes in
        # per-process string salting, ``_ra_trans`` holds interned
        # lowered steps whose update closures cannot pickle, and the
        # remaining slots are derived caches that rebuild on demand.
        return (
            self._events, self._sb, self._rf, self._mo, self.fast_eco,
            self._compact,
        )

    def __setstate__(self, state) -> None:
        (
            self._events, self._sb, self._rf, self._mo, self.fast_eco,
            self._compact,
        ) = state
        c = self._compact
        self.program_events = (
            sum(1 for e in self._events if not e.is_init) if c is None
            else len(c.events_seq) - len(c.inits)
        )
        self._init_lazy()

    def __repr__(self) -> str:
        return (
            f"C11State(|D|={len(self.events)}, |sb|={len(self.sb)}, "
            f"|rf|={len(self.rf)}, |mo|={len(self.mo)})"
        )

    # ------------------------------------------------------------------
    # Event classes and indices
    # ------------------------------------------------------------------

    @property
    def writes(self) -> FrozenSet[Event]:
        """``Wr ∩ D`` — every write (updates included)."""
        return frozenset(e for e in self.events if e.is_write)

    @property
    def reads(self) -> FrozenSet[Event]:
        """``Rd ∩ D`` — every read (updates included)."""
        return frozenset(e for e in self.events if e.is_read)

    @property
    def updates(self) -> FrozenSet[Event]:
        """``U ∩ D`` — the RMW updates."""
        return frozenset(e for e in self.events if e.is_update)

    @property
    def init_writes(self) -> FrozenSet[Event]:
        """``I_σ = D ∩ IWr`` — initialising writes present in the state."""
        return frozenset(e for e in self.events if e.is_init)

    def writes_on(self, x: Var) -> Tuple[Event, ...]:
        """The writes to ``x``, in modification order.

        Sequence-backed states answer straight from the ``mo`` sequence;
        otherwise MO-Valid makes ``mo|_x`` a strict total order, so the
        writes sort uniquely by their number of mo-predecessors (cached).
        """
        c = self.compact
        if c is not None:
            return c.mo.get(x, ())
        if self._writes_by_var is None:
            by_var: Dict[Var, List[Event]] = {}
            for e in self.events:
                if e.is_write:
                    by_var.setdefault(e.var, []).append(e)
            pred = self.mo.predecessors_map()
            for var_events in by_var.values():
                var_events.sort(key=lambda w: (len(pred.get(w, ())), w.tag))
            self._writes_by_var = by_var
        return tuple(self._writes_by_var.get(x, ()))

    def events_of(self, tid: Tid) -> Tuple[Event, ...]:
        """The events of thread ``tid``, in ``sb`` order.

        Sequence-backed states answer straight from the per-thread
        tuples (the initialisation block, tid 0, sorts by tag exactly
        as the legacy predecessor-count key did)."""
        c = self.compact
        if c is not None:
            seq = c.threads.get(tid)
            if seq is not None:
                return seq
            if tid == INIT_TID and c.inits:
                return c.inits
            return ()
        if self._events_by_tid is None:
            by_tid: Dict[Tid, List[Event]] = {}
            for e in self.events:
                by_tid.setdefault(e.tid, []).append(e)
            pred = self.sb.predecessors_map()
            for tid_events in by_tid.values():
                tid_events.sort(key=lambda e: (len(pred.get(e, ())), e.tag))
            self._events_by_tid = by_tid
        return tuple(self._events_by_tid.get(tid, ()))

    def event_by_tag(self, tag: Tag) -> Event:
        """Look up an event by its tag (tags are unique per execution).

        O(1): compact states carry the table; others build it once."""
        c = self._compact
        if c is not None:
            try:
                return c.tag_table()[tag]
            except KeyError:
                raise KeyError(tag) from None
        if self._by_tag is None:
            self._by_tag = {e.tag: e for e in self.events}
        try:
            return self._by_tag[tag]
        except KeyError:
            raise KeyError(tag) from None

    def next_tag(self) -> Tag:
        """The smallest positive tag not yet used in this state.

        Carried forward through the successor constructors on compact
        states instead of re-scanning every event."""
        c = self._compact
        if c is not None:
            return c.next_tag
        used = max((e.tag for e in self.events), default=0)
        return max(used, 0) + 1

    def variables(self) -> FrozenSet[Var]:
        """Every variable written in this state."""
        return frozenset(e.var for e in self.events if e.is_write)

    # ------------------------------------------------------------------
    # Derived orders
    # ------------------------------------------------------------------

    @property
    def sw(self) -> Relation:
        """``sw = rf ∩ (WrR × RdA)`` — synchronises-with."""
        if self._sw is None:
            self._sw = self.rf.filter_pairs(
                lambda w, r: w.is_release and r.is_acquire
            )
        return self._sw

    @property
    def hb(self) -> Relation:
        """``hb = (sb ∪ sw)+`` — happens-before.

        Compact states materialise the view straight from the
        incremental bitmasks; others run the definitional closure."""
        if self._hb is None:
            c = self.compact
            if c is not None:
                self._hb = Relation(c.hb_pairs())
            else:
                t0 = _clock()
                self._hb = (self.sb | self.sw).transitive_closure()
                ORDER_TIMER.seconds += _clock() - t0
        return self._hb

    @property
    def fr(self) -> Relation:
        """``fr = (rf⁻¹ ; mo) \\ Id`` — from-read.

        The identity is removed so an update (which reads its immediate
        mo-predecessor) is not fr-related to itself (Section 3.1).
        """
        if self._fr is None:
            self._fr = self.rf.inverse().compose(self.mo).remove_identity()
        return self._fr

    @property
    def eco(self) -> Relation:
        """``eco = (fr ∪ mo ∪ rf)+`` — extended coherence order.

        With ``fast_eco`` set (RA-built states, which satisfy update
        atomicity) the equivalent closed form of Lemma C.9 is used:
        ``rf ∪ mo ∪ fr ∪ (mo ; rf) ∪ (fr ; rf)``.  Property tests
        (tests/test_properties.py) confirm the two agree on every
        explored state.
        """
        if self._eco is None:
            t0 = _clock()
            if self.fast_eco:
                rf, mo, fr = self.rf, self.mo, self.fr
                self._eco = rf | mo | fr | mo.compose(rf) | fr.compose(rf)
            else:
                self._eco = (self.fr | self.mo | self.rf).transitive_closure()
            ORDER_TIMER.seconds += _clock() - t0
        return self._eco

    def eco_definitional(self) -> Relation:
        """The definitional ``(fr ∪ mo ∪ rf)+``, closure always taken
        (ground truth for the Lemma C.9 property tests)."""
        return (self.fr | self.mo | self.rf).transitive_closure()

    # ------------------------------------------------------------------
    # last(x) and update-only variables (Section 5)
    # ------------------------------------------------------------------

    def last(self, x: Var) -> Optional[Event]:
        """``σ.last(x)`` — the mo-maximal write to ``x`` (Section 5.1).

        Well-defined in any valid state; ``None`` when ``x`` was never
        written (no initialisation either).
        """
        if x not in self._last:
            ws = self.writes_on(x)
            self._last[x] = ws[-1] if ws else None
        return self._last[x]

    def is_update_only(self, x: Var) -> bool:
        """Whether ``x`` is an *update-only* variable (Section 5.1): every
        modification is an update or an initialising write."""
        return all(
            w.is_update or w.is_init for w in self.writes_on(x)
        )

    # ------------------------------------------------------------------
    # Construction of successor states
    # ------------------------------------------------------------------

    def add_event(self, e: Event) -> "C11State":
        """``(D, sb) + e`` — append ``e`` sb-after the initialising writes
        and all previous events of its own thread (Section 3.2)."""
        c = self._compact
        if c is not None:
            if e.tag in c.tag_table():
                raise ValueError(f"tag {e.tag} already used")
            child_c = c.add_event(e)
            if child_c is not None:
                child = C11State._from_compact(None, child_c, self.fast_eco)
                self._propagate_canon_ids(child, e)
                self._propagate_key_add(child, e)
                return child
        if any(old.tag == e.tag for old in self.events):
            raise ValueError(f"tag {e.tag} already used")
        new_sb = self.sb.add_all(
            (old, e)
            for old in self.events
            if old.tid == e.tid or old.is_init
        )
        child = C11State(
            self.events | {e}, new_sb, self.rf, self.mo, self.fast_eco
        )
        self._propagate_canon_ids(child, e)
        return child

    def _propagate_canon_ids(self, child: "C11State", e: Event) -> None:
        if self._canon_ids is None:
            return
        # The appended event is sb-last in its thread, so every
        # existing canonical identity survives; only e's is new.
        ids = dict(self._canon_ids)
        if e.is_init:
            ids[e] = ("init", e.var)
        else:
            c = self._compact
            if c is not None:
                pos = len(c.threads.get(e.tid, ()))
            else:
                pos = sum(1 for old in self.events if old.tid == e.tid)
            ids[e] = ("e", e.tid, pos)
        child._canon_ids = ids

    # -- incremental canonical keys (DESIGN.md §4/§11) -----------------
    #
    # The canonical key is `(events_part, rf_part, mo_part)` — sorted
    # tuples over the propagated event identities.  Each successor
    # constructor changes exactly one part by one sorted insertion (or
    # one per-variable sequence, for mo), so when the parent has been
    # keyed the child's key is a tuple surgery, not a re-derivation.
    # The parts produced must be byte-identical to a fresh
    # `canon.canonical_key` computation; `derived_order_divergences`
    # and test_engine's propagation regressions enforce that.

    def _key_parts(self):
        key = self._canon_key
        if key is None:
            return None
        return key.parts if type(key) is CachedKey else key

    def _propagate_key_add(self, child: "C11State", e: Event) -> None:
        parts = self._key_parts()
        ids = child._canon_ids
        if parts is None or ids is None:
            return
        events_part, rf_part, mo_part = parts
        described = e.described(ids[e])
        merged = list(events_part)
        insort(merged, described)
        child._canon_key = CachedKey((tuple(merged), rf_part, mo_part))

    def _propagate_key_rf(self, child: "C11State", w: Event, r: Event) -> None:
        parts = self._key_parts()
        ids = self._canon_ids
        if parts is None or ids is None:
            return
        events_part, rf_part, mo_part = parts
        pair = (ids[w], ids[r])
        if pair in rf_part:  # the edge was already present: key unchanged
            child._canon_key = self._canon_key
            return
        merged = list(rf_part)
        insort(merged, pair)
        child._canon_key = CachedKey((events_part, tuple(merged), mo_part))

    def _propagate_key_mo(
        self, child: "C11State", old_seq: Tuple[Event, ...],
        new_seq: Tuple[Event, ...],
    ) -> None:
        parts = self._key_parts()
        ids = self._canon_ids
        if parts is None or ids is None:
            return
        events_part, rf_part, mo_part = parts
        merged = list(mo_part)
        try:
            merged.remove(tuple(ids[x] for x in old_seq))
        except (ValueError, KeyError):  # foreign shape: recompute lazily
            return
        insort(merged, tuple(ids[x] for x in new_seq))
        child._canon_key = CachedKey((events_part, rf_part, tuple(merged)))

    # -- fused successor constructors (DESIGN.md §12) ------------------
    #
    # The RA semantics never observes the intermediate states of its
    # add_event/with_rf/insert_mo_after chains; these build the final
    # state in one compact clone with one fused key surgery.  Each falls
    # back to composing the unfused constructors (which carry the
    # definitional pair-set paths and validation) whenever the compact
    # fast path declines.

    def read_successor(self, e: Event, w: Event) -> "C11State":
        """``(self + e).with_rf(w, e)`` — ``e`` a fresh plain read."""
        c = self._compact
        # ``tag >= next_tag`` certifies freshness without a tag table —
        # sparse unused tags (hand-built states) take the chained path,
        # which validates duplicates definitionally.
        if c is not None and e.tag >= c.next_tag:
            child_c = c.add_read_event(e, w)
            if child_c is not None:
                child = C11State._from_compact(None, child_c, self.fast_eco)
                self._propagate_canon_ids(child, e)
                self._propagate_key_fused(child, e, w, rf=True, new_mo=None)
                return child
        return self.add_event(e).with_rf(w, e)

    def write_successor(self, e: Event, w: Event) -> "C11State":
        """``(self + e).insert_mo_after(w, e)`` — ``e`` a fresh write."""
        c = self._compact
        if c is not None and e.tag >= c.next_tag:
            child_c = c.add_write_event(e, w)
            if child_c is not None:
                child = C11State._from_compact(None, child_c, self.fast_eco)
                self._propagate_canon_ids(child, e)
                self._propagate_key_fused(
                    child, e, w, rf=False,
                    new_mo=(c.mo.get(e.var, ()), child_c.mo[e.var]),
                )
                return child
        return self.add_event(e).insert_mo_after(w, e)

    def rmw_successor(self, e: Event, w: Event) -> "C11State":
        """``(self + e).with_rf(w, e).insert_mo_after(w, e)`` — ``e`` a
        fresh update reading from and mo-following ``w``."""
        c = self._compact
        if c is not None and e.tag >= c.next_tag:
            child_c = c.add_rmw_event(e, w)
            if child_c is not None:
                child = C11State._from_compact(None, child_c, self.fast_eco)
                self._propagate_canon_ids(child, e)
                self._propagate_key_fused(
                    child, e, w, rf=True,
                    new_mo=(c.mo.get(e.var, ()), child_c.mo[e.var]),
                )
                return child
        return self.add_event(e).with_rf(w, e).insert_mo_after(w, e)

    def _propagate_key_fused(
        self, child: "C11State", e: Event, w: Event,
        rf: bool, new_mo,
    ) -> None:
        """One key surgery for a fused successor: the event insertion,
        plus the rf pair and/or the mo-sequence replacement, producing
        the same parts the chained propagations compose."""
        parts = self._key_parts()
        ids = child._canon_ids
        if parts is None or ids is None:
            return
        events_part, rf_part, mo_part = parts
        merged_e = list(events_part)
        insort(merged_e, e.described(ids[e]))
        if rf:
            merged_rf = list(rf_part)
            insort(merged_rf, (ids[w], ids[e]))
            rf_part = tuple(merged_rf)
        if new_mo is not None:
            old_seq, new_seq = new_mo
            merged_mo = list(mo_part)
            try:
                merged_mo.remove(tuple(ids[x] for x in old_seq))
            except (ValueError, KeyError):  # foreign shape: recompute lazily
                return
            insort(merged_mo, tuple(ids[x] for x in new_seq))
            mo_part = tuple(merged_mo)
        child._canon_key = CachedKey((tuple(merged_e), rf_part, mo_part))

    def with_rf(self, w: Event, r: Event) -> "C11State":
        """The state with an additional reads-from edge ``(w, r)``."""
        c = self._compact
        if c is not None:
            child_c = c.with_rf(w, r)
            if child_c is not None:
                child = C11State._from_compact(
                    self._events, child_c, self.fast_eco
                )
                child._canon_ids = self._canon_ids  # ids depend on (D, sb)
                self._propagate_key_rf(child, w, r)
                return child
        child = C11State(
            self.events, self.sb, self.rf.add((w, r)), self.mo, self.fast_eco
        )
        child._canon_ids = self._canon_ids  # identities depend on (D, sb) only
        return child

    def insert_mo_after(self, w: Event, e: Event) -> "C11State":
        """``mo[w, e]`` — insert ``e`` immediately after ``w`` in ``mo``.

        ``mo[w,e] = mo ∪ (mo+w × {e}) ∪ ({e} × mo[w])`` where
        ``mo+w = {w} ∪ mo⁻¹[w]``: everything up to and including ``w``
        precedes ``e``, and ``e`` precedes everything after ``w``.
        """
        c = self._compact
        if c is not None:
            child_c = c.insert_mo_after(w, e)
            if child_c is not None:
                child = C11State._from_compact(
                    self._events, child_c, self.fast_eco
                )
                child._canon_ids = self._canon_ids  # ids depend on (D, sb)
                self._propagate_key_mo(
                    child, c.mo.get(e.var, ()), child_c.mo[e.var]
                )
                return child
        before = self.mo.downset(w)  # {w} ∪ mo⁻¹[w]
        after = self.mo.image(w)
        new_pairs = {(b, e) for b in before} | {(e, a) for a in after}
        child = C11State(
            self.events, self.sb, self.rf, self.mo.add_all(new_pairs),
            self.fast_eco,
        )
        child._canon_ids = self._canon_ids  # identities depend on (D, sb) only
        return child

    def restricted_to(self, keep: Iterable[Event]) -> "C11State":
        """``σ ↾ E`` — restriction to a subset of events (Thm 4.8)."""
        kept = frozenset(keep)
        if not kept <= self.events:
            raise ValueError("restriction set must be a subset of D")
        return C11State(
            kept,
            self.sb.restrict_to(kept),
            self.rf.restrict_to(kept),
            self.mo.restrict_to(kept),
            self.fast_eco,
        )


def initial_state(init_values: Mapping[Var, Value]) -> C11State:
    """The initial state ``σ_0 = ((I, ∅), ∅, ∅)``.

    ``I`` holds exactly one initialising write per variable, none of them
    ordered by ``sb``, ``rf`` or ``mo`` (Section 3.1).  States grown from
    here by the RA event semantics keep update atomicity by construction,
    so the fast ``eco`` closed form is enabled — and they carry the
    incremental :class:`~repro.c11.compact.CompactOrders` representation.
    """
    inits = tuple(init_events(dict(init_values)))
    return C11State._from_compact(
        frozenset(inits), CompactOrders.from_inits(inits), True
    )
