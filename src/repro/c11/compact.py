"""Interned events and sequence-backed derived orders (DESIGN.md §11).

The paper's successor construction only ever *appends*: ``σ' = σ + e``
adds one event, one ``rf`` edge, or one ``mo`` insertion.  The original
relation layer nevertheless re-derived ``hb = (sb ∪ sw)+`` and ``eco``
per state by BFS closure over pair-set :class:`~repro.relations.relation.Relation`
objects whose total orders (``sb|_t``, ``mo|_x``) materialise O(n²)
frozensets — the dominant cost of exploration (E8/E12).

:class:`CompactOrders` is the incremental representation that replaces
that work on the hot path:

* **Interning** — every event of an execution gets a dense small-int
  index (``index``/``events_seq``), assigned at append time and *stable
  under every successor constructor* (``add_event`` only ever appends,
  ``with_rf``/``insert_mo_after`` touch no indices).  A ``by_tag`` table
  and a carried ``next_tag`` kill the O(n) scans of
  ``C11State.event_by_tag``/``next_tag``.
* **Total orders as sequences** — ``sb`` is per-thread ordered tuples
  (``threads``) plus the unordered initialisation block (``inits``);
  ``mo`` is per-variable ordered tuples.  O(n) instead of O(n²), with
  the pair-set :class:`Relation` views materialised lazily only for the
  axiomatic/checking consumers that genuinely need pair algebra
  (see ``C11State.sb``/``mo``/``rf``).
* **``rf`` as an int map** — read index → write index (reads-from is
  functional on reads in every state the semantics builds).
* **``hb`` as bitmasks** — ``hb[i]`` is the set of strict
  happens-before predecessors of event ``i``, a Python int used as a
  bitset.  ``add_event`` extends it in O(1) big-int ops (the appended
  event is sb-maximal, so its mask is the initialisation block joined
  with its thread predecessor's cone); ``with_rf`` adds the ``sw`` cone
  when the edge synchronises.  No BFS closure ever runs during
  exploration.
* **``eco`` as per-variable prefix masks** — under update atomicity
  (Lemma C.9, the ``fast_eco`` provenance of every explored state) the
  extended coherence order decomposes per variable:
  ``eco⁻¹(w_j) = {w_i, readers(w_i) | i < j}`` and
  ``eco⁻¹(r@w_i) = {w_j | j ≤ i} ∪ {readers(w_j) | j < i}``, which one
  prefix-OR sweep over each ``mo`` sequence computes for all events.

Invariants (checked exhaustively by :func:`derived_order_divergences`,
which the property tests and the ``repro fuzz --check-orders`` oracle
run against the definitional closures):

* indices are assigned in append order and never move;
* ``hb[i]`` equals the definitional ``(sb ∪ sw)+`` predecessor set;
* the eco prefix masks equal ``(fr ∪ mo ∪ rf)+``;
* a compact state with a non-empty ``unplaced`` tuple (a write appended
  but not yet ``mo``-inserted — the transient middle of a Write/RMW
  step) answers no derived-order queries; consumers fall back to the
  definitional path, which is exact on any state.

States assembled by hand from explicit relations (axiomatic candidates,
justifications, test fixtures) carry no :class:`CompactOrders` and use
the original pair-set algebra unchanged.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.c11.events import Event, Tag
from repro.lang.actions import Var
from repro.lang.program import Tid


class OrderTimerStats:
    """Process-wide accumulator of time spent deriving orders.

    The same discipline as :data:`repro.engine.keys.KEY_CACHE`: the
    engine snapshots :attr:`seconds` around a run and reports the delta
    as ``EngineStats.time_orders``, so suite/verify footers can
    attribute wall time to closure work.  Covers both the compact
    bitset derivations here and the definitional Relation closures the
    fallback paths still take (``C11State.hb``/``eco``).
    """

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.seconds = 0.0

    def snapshot(self) -> float:
        return self.seconds

    def __repr__(self) -> str:
        return f"OrderTimerStats(seconds={self.seconds:.6f})"


#: The one derived-order timer of this process (workers of the parallel
#: runner each get their own copy — fork/spawn isolation).
ORDER_TIMER = OrderTimerStats()

_clock = time.perf_counter


class CompactOrders:
    """The interned, sequence-backed form of one C11 state's orders.

    Instances are value-shared between parent and child states: the
    successor constructors copy only the containers they change (tuples
    and dicts of tuples, O(n) pointer copies), never the pair sets the
    legacy representation rebuilt.  The lazy caches ``_enc`` and
    ``_acyclic`` are per-instance and never propagated; ``_eco`` is
    extended parent-to-child by the fused constructors when the parent
    has already swept (:meth:`_propagate_eco`), so the hot exploration
    loop pays one full sweep per *root*, not per state.
    """

    __slots__ = (
        "events_seq",   # Tuple[Event, ...] — index order = append order
        "index",        # Dict[Event, int]
        "by_tag",       # Optional[Dict[Tag, Event]] — lazy, see tag_table()
        "next_tag",     # int — smallest unused positive tag, carried forward
        "inits",        # Tuple[Event, ...] — initialising writes, tag order
        "init_mask",    # int — bits of the initialising writes
        "write_mask",   # int — bits of every write
        "threads",      # Dict[Tid, Tuple[Event, ...]] — sb order, no inits
        "mo",           # Dict[Var, Tuple[Event, ...]] — mo order per var
        "mo_pos",       # Dict[Var, Tuple[int, ...]] — same order, as indices
        "rf",           # Dict[int, int] — read index -> write index
        "hb",           # Tuple[int, ...] — strict hb-predecessor masks
        "covered",      # int — mask of writes read by an update
        "unplaced",     # Tuple[Event, ...] — writes not yet mo-inserted
        "_eco",         # Optional[List[int]] — lazy eco-predecessor masks
        "_enc",         # Dict[Tid, int] — lazy encountered masks per thread
        "_acyclic",     # Optional[bool] — lazy sb∪rf∪mo acyclicity
    )

    def __init__(self) -> None:  # populated by the factory methods below
        self._eco = None
        self._enc = {}
        self._acyclic = None

    @classmethod
    def from_inits(cls, inits) -> "CompactOrders":
        """The compact form of ``σ_0``: the initialising writes only."""
        self = cls()
        ordered = tuple(sorted(inits, key=lambda e: e.tag))
        self.events_seq = ordered
        self.index = {e: i for i, e in enumerate(ordered)}
        self.by_tag = {e.tag: e for e in ordered}
        self.next_tag = max(
            [max((e.tag for e in ordered), default=0) + 1, 1]
        )
        self.inits = ordered
        self.init_mask = (1 << len(ordered)) - 1
        self.write_mask = self.init_mask
        self.threads = {}
        self.mo = {e.var: (e,) for e in ordered}
        self.mo_pos = {e.var: (i,) for i, e in enumerate(ordered)}
        self.rf = {}
        self.hb = (0,) * len(ordered)
        self.covered = 0
        self.unplaced = ()
        return self

    def _clone(self) -> "CompactOrders":
        child = CompactOrders()
        child.events_seq = self.events_seq
        child.index = self.index
        child.by_tag = self.by_tag
        child.next_tag = self.next_tag
        child.inits = self.inits
        child.init_mask = self.init_mask
        child.write_mask = self.write_mask
        child.threads = self.threads
        child.mo = self.mo
        child.mo_pos = self.mo_pos
        child.rf = self.rf
        child.hb = self.hb
        child.covered = self.covered
        child.unplaced = self.unplaced
        return child

    def tag_table(self) -> Dict[Tag, Event]:
        """``tag → event`` for every interned event (lazy).

        Successor construction no longer copies the table per child —
        the exploration hot path guards freshness with ``next_tag``
        alone — so descendants carry ``None`` until something actually
        needs the map (``event_by_tag``, duplicate-tag validation).
        """
        tab = self.by_tag
        if tab is None:
            tab = {e.tag: e for e in self.events_seq}
            self.by_tag = tab
        return tab

    # ------------------------------------------------------------------
    # Incremental successor construction
    # ------------------------------------------------------------------

    def add_event(self, e: Event) -> Optional["CompactOrders"]:
        """``(D, sb) + e`` — intern ``e`` and extend ``hb`` incrementally.

        The appended event is sb-placed after the initialisation block
        and all previous events of its thread, hence sb-maximal: its
        ``hb`` mask is the init block joined with its thread
        predecessor's cone, and no existing mask changes.  Returns
        ``None`` for cases the incremental form does not cover
        (appending an initialising write), letting the caller fall back
        to the definitional path.
        """
        if e.is_init:
            return None
        child = self._clone()
        n = len(self.events_seq)
        child.events_seq = self.events_seq + (e,)
        index = dict(self.index)
        index[e] = n
        child.index = index
        child.by_tag = None  # lazy: rebuilt from events_seq on demand
        child.next_tag = max(self.next_tag, e.tag + 1)
        if e.action.is_write:
            child.write_mask = self.write_mask | (1 << n)
            child.unplaced = self.unplaced + (e,)
        mine = self.threads.get(e.tid, ())
        threads = dict(self.threads)
        threads[e.tid] = mine + (e,)
        child.threads = threads
        mask = self.init_mask
        if mine:
            last = self.index[mine[-1]]
            mask |= self.hb[last] | (1 << last)
        child.hb = self.hb + (mask,)
        return child

    def with_rf(self, w: Event, r: Event) -> Optional["CompactOrders"]:
        """``rf ∪ {(w, r)}`` — extend the read map (and ``hb`` when the
        edge synchronises).

        The ``sw`` cone propagation is O(1) only when nothing is
        hb-after ``r`` — guaranteed when ``r`` is the newest event,
        which is how the semantics always calls this (the edge is added
        immediately after ``r`` is appended).  Other call shapes return
        ``None`` and fall back.
        """
        w_i = self.index.get(w)
        r_i = self.index.get(r)
        if w_i is None or r_i is None:
            return None
        existing = self.rf.get(r_i)
        if existing is not None and existing != w_i:
            return None  # non-functional rf: not a semantics-built state
        synchronises = w.action.is_release and r.action.is_acquire
        if synchronises and r_i != len(self.events_seq) - 1:
            return None  # r is not hb-maximal: cone propagation unsafe
        child = self._clone()
        rf = dict(self.rf)
        rf[r_i] = w_i
        child.rf = rf
        if synchronises:
            hb = list(self.hb)
            hb[r_i] |= self.hb[w_i] | (1 << w_i)
            child.hb = tuple(hb)
        if r.action.is_update:
            child.covered = self.covered | (1 << w_i)
        return child

    def insert_mo_after(self, w: Event, e: Event) -> Optional["CompactOrders"]:
        """``mo[w, e]`` — splice ``e`` immediately after ``w`` in its
        variable's sequence.  ``hb`` and ``rf`` are untouched (``mo``
        never feeds happens-before)."""
        if e.var is None or e not in self.index:
            return None
        seq = self.mo.get(e.var, ())
        if w not in seq or e in seq:
            return None
        pos = seq.index(w)
        mo = dict(self.mo)
        mo[e.var] = seq[: pos + 1] + (e,) + seq[pos + 1 :]
        child = self._clone()
        child.mo = mo
        pseq = self.mo_pos[e.var]
        mo_pos = dict(self.mo_pos)
        mo_pos[e.var] = pseq[: pos + 1] + (self.index[e],) + pseq[pos + 1 :]
        child.mo_pos = mo_pos
        if e in self.unplaced:
            child.unplaced = tuple(x for x in self.unplaced if x is not e)
        return child

    # -- fused successor construction (one clone per transition) -------
    #
    # The RA semantics builds every successor by a fixed 2–3 step chain
    # (append the event, then wire rf and/or splice mo), and the chain's
    # intermediate states are never observed — they exist only to be
    # cloned again.  The three fused constructors below build the final
    # state in ONE clone with the same container updates the chain would
    # apply, checked against the sequential composition field for field.
    # Each returns ``None`` for any shape its chain counterpart would
    # refuse or fall back on, letting the caller compose the unfused
    # methods (which carry the definitional fallbacks).

    def _append(self, child: "CompactOrders", e: Event, extra_hb: int) -> int:
        """Shared tail of the fused constructors: intern ``e`` at the
        next index with ``extra_hb`` joined into its predecessor mask.
        Returns the new index."""
        n = len(self.events_seq)
        child.events_seq = self.events_seq + (e,)
        index = dict(self.index)
        index[e] = n
        child.index = index
        child.by_tag = None  # lazy: rebuilt from events_seq on demand
        child.next_tag = max(self.next_tag, e.tag + 1)
        mine = self.threads.get(e.tid, ())
        threads = dict(self.threads)
        threads[e.tid] = mine + (e,)
        child.threads = threads
        mask = self.init_mask | extra_hb
        if mine:
            last = self.index[mine[-1]]
            mask |= self.hb[last] | (1 << last)
        child.hb = self.hb + (mask,)
        return n

    def _propagate_eco(
        self, child: "CompactOrders", n: int, w_i: int, is_write: bool
    ) -> None:
        """Extend an already-computed eco sweep to the fused child.

        The sweep is a pure function of ``mo``/``rf``, and a fused
        append perturbs it in one known way: the new event's own mask
        is the observed write's prefix (plus, for writes, the observed
        write's readers), and the new bit joins exactly the events
        strictly mo-after the observed write and their readers.  One
        O(n) pass instead of the O(n·vars) full sweep — correctness is
        pinned by :func:`derived_order_divergences` (the property tests
        and the ``--check-orders`` fuzz oracle recompute the sweep from
        scratch and compare).
        """
        p_eco = self._eco
        if p_eco is None:
            return  # parent never swept; the child stays lazy
        t0 = _clock()
        eco = list(p_eco)
        nbit = 1 << n
        wbit = 1 << w_i
        entry = p_eco[w_i] | wbit
        # ``mo`` sequences ARE mo order: the strict mo-successors of the
        # observed write are exactly the suffix past it, and ``mo_pos``
        # gives their interned indices without hashing a single event.
        pseq = self.mo_pos.get(self.events_seq[w_i].var, ())
        try:
            pos = pseq.index(w_i)
        except ValueError:
            pos = len(pseq)
        sufbits = 0
        for v_i in pseq[pos + 1 :]:
            eco[v_i] |= nbit
            sufbits |= 1 << v_i
        if sufbits or is_write:
            for r_i, t_i in self.rf.items():
                if (sufbits >> t_i) & 1:
                    eco[r_i] |= nbit
                elif is_write and t_i == w_i:
                    entry |= 1 << r_i
        eco.append(entry)
        child._eco = eco
        ORDER_TIMER.seconds += _clock() - t0

    def add_read_event(self, e: Event, w: Event) -> Optional["CompactOrders"]:
        """``add_event(e)`` then ``with_rf(w, e)`` in one clone — ``e``
        a plain read observing the interned write ``w``."""
        if e.is_init:
            return None
        w_i = self.index.get(w)
        if w_i is None:
            return None
        sync = w.action.is_release and e.action.is_acquire
        child = self._clone()
        n = self._append(
            child, e, (self.hb[w_i] | (1 << w_i)) if sync else 0
        )
        rf = dict(self.rf)
        rf[n] = w_i
        child.rf = rf
        self._propagate_eco(child, n, w_i, is_write=False)
        return child

    def add_write_event(self, e: Event, w: Event) -> Optional["CompactOrders"]:
        """``add_event(e)`` then ``insert_mo_after(w, e)`` in one clone
        — ``e`` a plain write spliced immediately after ``w``.  The
        event is mo-placed at birth, so it never enters ``unplaced``."""
        if e.is_init or e.var is None:
            return None
        seq = self.mo.get(e.var, ())
        if w not in seq:
            return None
        child = self._clone()
        n = self._append(child, e, 0)
        child.write_mask = self.write_mask | (1 << n)
        pos = seq.index(w)
        mo = dict(self.mo)
        mo[e.var] = seq[: pos + 1] + (e,) + seq[pos + 1 :]
        child.mo = mo
        pseq = self.mo_pos[e.var]
        mo_pos = dict(self.mo_pos)
        mo_pos[e.var] = pseq[: pos + 1] + (n,) + pseq[pos + 1 :]
        child.mo_pos = mo_pos
        self._propagate_eco(child, n, self.index[w], is_write=True)
        return child

    def add_rmw_event(self, e: Event, w: Event) -> Optional["CompactOrders"]:
        """``add_event(e)``, ``with_rf(w, e)`` and
        ``insert_mo_after(w, e)`` in one clone — ``e`` an update reading
        from and mo-following ``w``."""
        if e.is_init or e.var is None:
            return None
        w_i = self.index.get(w)
        if w_i is None:
            return None
        seq = self.mo.get(e.var, ())
        if w not in seq:
            return None
        sync = w.action.is_release and e.action.is_acquire
        child = self._clone()
        n = self._append(
            child, e, (self.hb[w_i] | (1 << w_i)) if sync else 0
        )
        child.write_mask = self.write_mask | (1 << n)
        rf = dict(self.rf)
        rf[n] = w_i
        child.rf = rf
        child.covered = self.covered | (1 << w_i)
        pos = seq.index(w)
        mo = dict(self.mo)
        mo[e.var] = seq[: pos + 1] + (e,) + seq[pos + 1 :]
        child.mo = mo
        pseq = self.mo_pos[e.var]
        mo_pos = dict(self.mo_pos)
        mo_pos[e.var] = pseq[: pos + 1] + (n,) + pseq[pos + 1 :]
        child.mo_pos = mo_pos
        self._propagate_eco(child, n, w_i, is_write=True)
        return child

    # ------------------------------------------------------------------
    # Derived orders as bitset queries
    # ------------------------------------------------------------------

    def eco_pred(self) -> List[int]:
        """Per-event eco-predecessor masks (lazy, one prefix sweep).

        Valid under update atomicity — exactly the states that carry a
        compact form (they all descend from ``initial_state``, whose
        ``fast_eco`` provenance records the same fact for Lemma C.9).
        """
        if self._eco is None:
            t0 = _clock()
            readers: Dict[int, int] = {}
            for r_i, w_i in self.rf.items():
                readers[w_i] = readers.get(w_i, 0) | (1 << r_i)
            eco = [0] * len(self.events_seq)
            index = self.index
            for seq in self.mo.values():
                prefix = 0
                for w in seq:
                    wi = index[w]
                    wbit = 1 << wi
                    # writes: everything (writes and readers) strictly
                    # mo-before; an update's own reader bit is cleared
                    eco[wi] = (eco[wi] | prefix) & ~wbit
                    rmask = readers.get(wi, 0)
                    if rmask:
                        # readers of w: writes up to and including w,
                        # plus readers of strictly earlier writes
                        pr = prefix | wbit
                        probe = rmask
                        while probe:
                            lsb = probe & -probe
                            eco[lsb.bit_length() - 1] |= pr
                            probe ^= lsb
                    prefix |= wbit | rmask
            self._eco = eco
            ORDER_TIMER.seconds += _clock() - t0
        return self._eco

    def thread_cone(self, tid: Tid) -> int:
        """Everything hb?-before an event of ``tid`` (0 when the thread
        has no events yet) — the ``hb`` side of ``EW_σ(t)``."""
        mine = self.threads.get(tid)
        if not mine:
            return 0
        last = self.index[mine[-1]]
        return self.hb[last] | (1 << last)

    def encountered_mask(self, tid: Tid) -> int:
        """``eco? ; hb?`` into the events of ``tid``, as a mask (cached).

        The compact form of :func:`repro.c11.observability.encountered_writes`
        before the ``Wr`` filter: the thread's hb cone, widened by the
        eco predecessors of each of its members.
        """
        cached = self._enc.get(tid)
        if cached is not None:
            return cached
        cone = self.thread_cone(tid)
        mask = cone
        if cone:
            eco = self.eco_pred()  # times its own (possibly lazy) sweep
            t0 = _clock()
            probe = cone
            while probe:
                lsb = probe & -probe
                mask |= eco[lsb.bit_length() - 1]
                probe ^= lsb
            ORDER_TIMER.seconds += _clock() - t0
        self._enc[tid] = mask
        return mask

    def _observable(self, tid: Tid, var: Var) -> List[tuple]:
        """``OW_σ(t)|_x`` as ``(event, index)`` pairs in modification
        order.

        A write is observable unless an encountered write mo-supersedes
        it; the suffix mask makes the whole sequence one backward pass,
        and ``mo_pos`` supplies the bit positions without hashing.
        """
        seq = self.mo.get(var)
        if not seq:
            return []
        pseq = self.mo_pos[var]
        enc = self.encountered_mask(tid)
        if not enc:  # thread saw nothing yet: everything is observable
            return list(zip(seq, pseq))
        out: List[tuple] = []
        suffix = 0  # strict mo-successors seen so far
        for i in range(len(seq) - 1, -1, -1):
            if not (suffix & enc):
                out.append((seq[i], pseq[i]))
            suffix |= 1 << pseq[i]
        out.reverse()
        return out

    def observable_on(self, tid: Tid, var: Var) -> List[Event]:
        """``OW_σ(t)|_x`` in modification order."""
        return [w for w, _ in self._observable(tid, var)]

    def read_targets(self, tid: Tid, var: Var) -> List[Event]:
        """Rule Read's candidates, sorted by tag (the enumeration order
        the engine has always used)."""
        return sorted(self.observable_on(tid, var), key=lambda w: w.tag)

    def write_targets(self, tid: Tid, var: Var) -> List[Event]:
        """Rule Write/RMW's candidates: observable and not covered."""
        covered = self.covered
        return sorted(
            (
                w
                for w, w_i in self._observable(tid, var)
                if not (covered >> w_i) & 1
            ),
            key=lambda w: w.tag,
        )

    def observable_set(self, tid: Tid, var: Optional[Var] = None):
        """``OW_σ(t)`` (optionally restricted to one variable) as a
        frozenset — the drop-in form for :mod:`repro.c11.observability`."""
        if var is not None:
            return frozenset(self.observable_on(tid, var))
        out: List[Event] = []
        for x in self.mo:
            out.extend(self.observable_on(tid, x))
        return frozenset(out)

    def events_from_mask(self, mask: int):
        """The events whose interned bits are set in ``mask``."""
        seq = self.events_seq
        out = []
        while mask:
            lsb = mask & -mask
            out.append(seq[lsb.bit_length() - 1])
            mask ^= lsb
        return out

    def union_acyclic(self) -> bool:
        """Whether ``sb ∪ rf ∪ mo`` is acyclic (the SRA strengthening).

        Total orders decompose into their immediate-successor chains
        without changing reachability, so the check runs over O(n)
        edges: per-thread chains (entered from the initialisation
        block), per-variable mo chains and the rf edges.
        """
        if self._acyclic is None:
            t0 = _clock()
            n = len(self.events_seq)
            adj: List[List[int]] = [[] for _ in range(n)]
            index = self.index
            init_indices = [index[e] for e in self.inits]
            for seq in self.threads.values():
                if not seq:
                    continue
                first = index[seq[0]]
                for i in init_indices:
                    adj[i].append(first)
                for a, b in zip(seq, seq[1:]):
                    adj[index[a]].append(index[b])
            for seq in self.mo.values():
                for a, b in zip(seq, seq[1:]):
                    adj[index[a]].append(index[b])
            for r_i, w_i in self.rf.items():
                adj[w_i].append(r_i)
            # Iterative three-colour DFS.
            WHITE, GREY, BLACK = 0, 1, 2
            colour = [WHITE] * n
            acyclic = True
            for root in range(n):
                if colour[root] != WHITE or not acyclic:
                    continue
                stack: List[Tuple[int, int]] = [(root, 0)]
                colour[root] = GREY
                while stack:
                    node, child_pos = stack[-1]
                    if child_pos < len(adj[node]):
                        stack[-1] = (node, child_pos + 1)
                        succ = adj[node][child_pos]
                        if colour[succ] == GREY:
                            acyclic = False
                            break
                        if colour[succ] == WHITE:
                            colour[succ] = GREY
                            stack.append((succ, 0))
                    else:
                        colour[node] = BLACK
                        stack.pop()
                if not acyclic:
                    break
            self._acyclic = acyclic
            ORDER_TIMER.seconds += _clock() - t0
        return self._acyclic

    # ------------------------------------------------------------------
    # Pair-set materialisation (the lazy Relation views)
    # ------------------------------------------------------------------

    def sb_pairs(self):
        """The full ``sb`` pair set: init block before every program
        event, plus each thread's total order."""
        return sb_pairs_from(self.inits, self.threads)

    def mo_pairs(self):
        """The full ``mo`` pair set (per-variable total orders)."""
        pairs = []
        for seq in self.mo.values():
            for i in range(len(seq)):
                for j in range(i + 1, len(seq)):
                    pairs.append((seq[i], seq[j]))
        return pairs

    def rf_pairs(self):
        seq = self.events_seq
        return [(seq[w_i], seq[r_i]) for r_i, w_i in self.rf.items()]

    def hb_pairs(self):
        """``hb`` as pairs, straight from the masks (no closure run)."""
        t0 = _clock()
        seq = self.events_seq
        pairs = []
        for j, e in enumerate(seq):
            mask = self.hb[j]
            while mask:
                lsb = mask & -mask
                pairs.append((seq[lsb.bit_length() - 1], e))
                mask ^= lsb
        ORDER_TIMER.seconds += _clock() - t0
        return pairs


def sb_pairs_from(inits, threads) -> List[Tuple[Event, Event]]:
    """Materialise canonical-shape ``sb`` from its sequence form: the
    (unordered) initialisation block before every program event, plus
    each thread's total order.  Shared by :meth:`CompactOrders.sb_pairs`
    and the sequence-backed pre-execution states."""
    pairs: List[Tuple[Event, Event]] = []
    non_init = [e for seq in threads.values() for e in seq]
    for i_ev in inits:
        for e in non_init:
            pairs.append((i_ev, e))
    for seq in threads.values():
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                pairs.append((seq[i], seq[j]))
    return pairs


class CachedKey:
    """A canonical key with its hash precomputed.

    Canonical keys are nested tuples sized with the execution, and the
    engine hashes each one several times per transition (seen-set
    membership, insertion, the parent map).  Wrapping the parts hashes
    the structure exactly once; dictionary operations then reuse the
    cached value.  Equality (and the hash) is defined against the raw
    parts too, so code that computes a fresh tuple key compares equal
    to the wrapped form transparently.
    """

    __slots__ = ("parts", "_hash", "_digest")

    def __init__(self, parts) -> None:
        self.parts = parts
        self._hash = hash(parts)
        self._digest = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is CachedKey:
            return self._hash == other._hash and self.parts == other.parts
        return self.parts == other

    def __repr__(self) -> str:
        return f"CachedKey({self.parts!r})"

    def __reduce__(self):
        # hashes of strings are salted per process: rebuild, never ship
        return (CachedKey, (self.parts,))

    def digest(self) -> bytes:
        """A stable cross-process digest of the key (DESIGN.md §15).

        Unlike ``__hash__`` (salted per process via string hashing),
        the digest is identical in every process, so shard assignment
        can route through it.  Computed once per key object.
        """
        if self._digest is None:
            from repro.engine.keys import key_digest

            self._digest = key_digest(self.parts)
        return self._digest


# ----------------------------------------------------------------------
# Self-check against the definitional closures
# ----------------------------------------------------------------------


def derived_order_divergences(state) -> List[str]:
    """Every way the compact derivations disagree with the definitions.

    Rebuilds the state from its materialised relations alone (no
    compact form) and compares, pairwise: ``hb`` masks vs the
    ``(sb ∪ sw)+`` closure, the eco prefix masks vs
    ``(fr ∪ mo ∪ rf)+``, observability (EW/OW/CW) per thread, the SRA
    acyclicity answer, the tag index and sequence-derived sort orders,
    and the canonical key.  Empty list = full agreement.  States
    without a compact form (or mid-step, with unplaced writes) have
    nothing to check.

    This is the oracle behind the hypothesis property tests
    (tests/test_compact.py) and ``repro fuzz --check-orders``.
    """
    from repro.c11.state import C11State
    from repro.interp.canon import canonical_key

    compact = getattr(state, "_compact", None)
    if compact is None or compact.unplaced:
        return []
    out: List[str] = []
    clone = C11State(
        state.events, state.sb, state.rf, state.mo, fast_eco=state.fast_eco
    )

    hb_compact = frozenset(compact.hb_pairs())
    hb_def = (clone.sb | clone.sw).transitive_closure().pairs
    if hb_compact != hb_def:
        out.append(
            f"hb masks diverge from (sb ∪ sw)+: "
            f"{sorted(map(str, hb_compact ^ hb_def))[:4]}"
        )

    eco_masks = compact.eco_pred()
    eco_compact = frozenset(
        (a, e)
        for j, e in enumerate(compact.events_seq)
        for a in compact.events_from_mask(eco_masks[j])
    )
    eco_def = clone.eco_definitional().pairs
    if eco_compact != eco_def:
        out.append(
            f"eco prefix masks diverge from (fr ∪ mo ∪ rf)+: "
            f"{sorted(map(str, eco_compact ^ eco_def))[:4]}"
        )

    fr_compact = set()
    for r_i, w_i in compact.rf.items():
        r = compact.events_seq[r_i]
        w = compact.events_seq[w_i]
        seq = compact.mo[w.var]
        for later in seq[seq.index(w) + 1 :]:
            if later is not r:
                fr_compact.add((r, later))
    if frozenset(fr_compact) != clone.fr.pairs:
        out.append("sequence-derived fr diverges from (rf⁻¹ ; mo) \\ Id")

    from repro.c11 import observability as obs

    tids = sorted({e.tid for e in state.events if not e.is_init}) or [1]
    for tid in tids:
        fast_ew = frozenset(
            e
            for e in compact.events_from_mask(
                compact.encountered_mask(tid) & compact.write_mask
            )
        )
        if fast_ew != obs.encountered_writes(clone, tid):
            out.append(f"EW({tid}) diverges")
        if compact.observable_set(tid) != obs.observable_writes(clone, tid):
            out.append(f"OW({tid}) diverges")
    fast_cw = frozenset(
        compact.events_from_mask(compact.covered & compact.write_mask)
    )
    if fast_cw != obs.covered_writes(clone):
        out.append("CW diverges")

    union = clone.sb | clone.rf | clone.mo
    if compact.union_acyclic() != union.is_acyclic():
        out.append("sb ∪ rf ∪ mo acyclicity diverges")

    for e in state.events:
        if compact.tag_table().get(e.tag) is not e:
            out.append(f"tag index diverges at {e}")
            break
    legacy_next = max([e.tag for e in state.events] + [0]) + 1
    if compact.next_tag != max(legacy_next, 1):
        out.append(
            f"next_tag diverges: {compact.next_tag} vs {legacy_next}"
        )

    for x in clone.variables():
        if tuple(compact.mo.get(x, ())) != clone.writes_on(x):
            out.append(f"writes_on({x}) diverges from the mo sequence")
    for tid in tids:
        if tuple(compact.threads.get(tid, ())) != clone.events_of(tid):
            out.append(f"events_of({tid}) diverges from the sb sequence")

    if canonical_key(state) != canonical_key(clone):
        out.append("canonical key diverges between compact and clone")
    cached = getattr(state, "_canon_key", None)
    if cached is not None and cached != canonical_key(clone):
        out.append(
            "incrementally propagated canonical key diverges from a "
            "fresh derivation"
        )

    return out


__all__ = [
    "CachedKey",
    "CompactOrders",
    "ORDER_TIMER",
    "OrderTimerStats",
    "derived_order_divergences",
]
