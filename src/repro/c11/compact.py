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
  index (``index``/``events_seq``), assigned at append time and *stable*:
  the one successor constructor, :meth:`CompactOrders.add`, only ever
  appends.  A ``by_tag`` table and a carried ``next_tag`` kill the O(n)
  scans of ``C11State.event_by_tag``/``next_tag``.
* **Validate now, build later** — :meth:`CompactOrders.placement`
  checks a step without a clone; ``C11State.successor`` keeps the
  result in a deferred child, whose ``compact`` property runs
  :meth:`CompactOrders.add` on first read (counted as
  ``COUNTERS.states_built``, :mod:`repro.counters`).
  A deferred child holds its parent's form, never the parent state.
* **Hash-consed keys** — a canonical key is a flat tuple of
  :class:`KeyNode` objects: one :class:`ChainNode` per thread, one
  :class:`SeqNode` per variable's ``mo``, interned by
  :func:`intern_node` in one weak process-wide table, so a successor's
  key costs one chain lookup plus, for a write, one ``mo`` lookup
  (:func:`key_with_event`; DESIGN.md §4).
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
  bitset.  ``add`` extends it in O(1) big-int ops: the appended event
  is sb-maximal, so its mask is the initialisation block joined with
  its thread predecessor's cone, plus the observed write's cone when
  the new ``rf`` edge synchronises.  No BFS closure ever runs during
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
* the eco prefix masks equal ``(fr ∪ mo ∪ rf)+``.

States assembled by hand from explicit relations (axiomatic candidates,
justifications, test fixtures) carry no :class:`CompactOrders` and use
the original pair-set algebra unchanged.
"""

from __future__ import annotations

import time
import weakref
from typing import Dict, List, Optional, Tuple

from repro.c11.events import Event, Tag
from repro.counters import COUNTERS
from repro.lang.actions import Var
from repro.lang.program import Tid

_clock = time.perf_counter


class CompactOrders:
    """The interned, sequence-backed form of one C11 state's orders.

    Instances are value-shared between parent and child states: the
    successor constructor :meth:`add` copies only the containers it
    changes (tuples and dicts of tuples, O(n) pointer copies), never the
    pair sets the legacy representation rebuilt.  The lazy caches
    ``_enc`` and ``_acyclic`` are per-instance and never propagated;
    ``_eco`` is extended parent-to-child by :meth:`add` when the parent
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
        "mo_rank",      # Dict[Var, int] — place in sorted var order
        "rf",           # Dict[int, int] — read index -> write index
        "hb",           # Tuple[int, ...] — strict hb-predecessor masks
        "covered",      # int — mask of writes read by an update
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
        self.mo_rank = {x: i for i, x in enumerate(sorted(self.mo))}
        self.rf = {}
        self.hb = (0,) * len(ordered)
        self.covered = 0
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
        child.mo_rank = self.mo_rank
        child.rf = self.rf
        child.hb = self.hb
        child.covered = self.covered
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

    def placement(self, e: Event, w: Event) -> Optional[int]:
        """Whether :meth:`add` covers ``σ + e`` with ``e`` observing
        ``w``, checked without a clone: the index of ``w`` in the
        ``mo`` sequence of ``e``'s variable (a write is spliced right
        after it; the successor key reads a read's source identity
        there), or ``None`` for a shape the incremental form does not
        cover — an initialising ``e``, a ``w`` that is not interned or
        not in that sequence, or a tag already in use.
        ``C11State.successor`` then takes the definitional
        constructors instead.

        ``tag >= next_tag`` certifies freshness without a tag table; a
        replayed older tag is looked up.
        """
        if e.is_init:
            return None
        w_i = self.index.get(w)
        if w_i is None:
            return None
        if e.tag < self.next_tag and e.tag in self.tag_table():
            return None
        try:
            return self.mo_pos.get(e.action.var, ()).index(w_i)
        except ValueError:
            return None

    def add(self, e: Event, w: Event, pos: int) -> "CompactOrders":
        """``σ + e`` with ``e`` observing the interned write ``w``, in
        one clone: the event append ``(D, sb) + e``, then the edge
        ``rf ∪ {(w, e)}`` when ``e`` reads and the splice ``mo[w, e]``
        (after position ``pos``) when it writes (an update does both).

        ``pos`` is what :meth:`placement` returned for ``(e, w)``; this
        is the one constructor of a compact form past ``σ_0``, and it
        cannot fail.  The appended event is sb-maximal, so no existing
        ``hb`` mask changes, and it is mo-placed at birth.
        """
        COUNTERS.states_built += 1
        w_i = self.index[w]
        action = e.action
        writes = action.is_write
        child = self._clone()
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
        mask = self.init_mask
        if mine:
            last = self.index[mine[-1]]
            mask |= self.hb[last] | (1 << last)
        if action.is_read:
            if w.action.is_release and action.is_acquire:  # sw edge
                mask |= self.hb[w_i] | (1 << w_i)
            rf = dict(self.rf)
            rf[n] = w_i
            child.rf = rf
            if action.is_update:
                child.covered = self.covered | (1 << w_i)
        child.hb = self.hb + (mask,)
        if writes:
            child.write_mask = self.write_mask | (1 << n)
            seq = self.mo[action.var]
            mo = dict(self.mo)
            mo[action.var] = seq[: pos + 1] + (e,) + seq[pos + 1 :]
            child.mo = mo
            pseq = self.mo_pos[action.var]
            mo_pos = dict(self.mo_pos)
            mo_pos[action.var] = pseq[: pos + 1] + (n,) + pseq[pos + 1 :]
            child.mo_pos = mo_pos
        self._propagate_eco(child, n, w_i, writes)
        return child

    def _propagate_eco(
        self, child: "CompactOrders", n: int, w_i: int, is_write: bool
    ) -> None:
        """Extend an already-computed eco sweep to the child of :meth:`add`.

        The sweep is a pure function of ``mo``/``rf``, and an append
        perturbs it in one known way: the new event's own mask
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
        COUNTERS.time_orders += _clock() - t0

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
            COUNTERS.time_orders += _clock() - t0
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
            COUNTERS.time_orders += _clock() - t0
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
            COUNTERS.time_orders += _clock() - t0
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
        COUNTERS.time_orders += _clock() - t0
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


# ----------------------------------------------------------------------
# Hash-consed canonical-key nodes (DESIGN.md §4)
# ----------------------------------------------------------------------


class KeyNode:
    """One hash-consed node of a canonical key.

    Nodes are built only by :func:`intern_node`, so equal content is one
    object for as long as it is alive.  A node therefore defines no
    ``__eq__`` or ``__hash__``: a key — a flat tuple of nodes — hashes
    and compares in C, by identity.  Pickling ships the content and
    interns it again on load, so a key that crosses a process (a
    checkpoint, a shard message) loads as the receiving process's live
    node.
    """

    __slots__ = ("content", "__weakref__")

    def __reduce__(self):
        return (intern_node, (type(self), self.content))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.content!r})"


class ChainNode(KeyNode):
    """A thread's events up to one position: ``content`` is ``(parent
    chain or None, description)`` — ``sb`` is total per thread
    (SB-Total), so a successor extends one chain by one node.  A
    description starts with its event's identity ``("e", tid,
    position)``."""

    __slots__ = ()

    def __reduce__(self):
        parent, desc = self.content
        if parent is None or desc[2] % _CUT:
            return (intern_node, (ChainNode, self.content))
        # Every _CUT-th node pickles as the node _CUT positions up plus
        # the descriptions since, so the pickler recurses once per _CUT
        # events of a thread, not once per event.
        descs = []
        node = self
        for _ in range(_CUT):
            node, desc = node.content
            descs.append(desc)
        descs.reverse()
        return (_regrow, (node, tuple(descs)))

    def __repr__(self) -> str:
        return f"ChainNode({self.descriptions()!r})"

    def descriptions(self) -> tuple:
        """The chain's event descriptions, root first."""
        out = []
        node = self
        while node is not None:
            node, desc = node.content
            out.append(desc)
        out.reverse()
        return tuple(out)


class SeqNode(KeyNode):
    """A flat sequence: one variable's ``mo`` as its tuple of canonical
    event identities, in modification order, or the initialising
    writes' descriptions, sorted by variable."""

    __slots__ = ()


#: How many chain nodes one pickling recursion covers (see
#: ``ChainNode.__reduce__``).
_CUT = 64


def _regrow(anchor: Optional[ChainNode], descs: tuple) -> ChainNode:
    """The chain ``anchor`` extended by ``descs`` (unpickling)."""
    for desc in descs:
        anchor = intern_node(ChainNode, (anchor, desc))
    return anchor


class _NodeRef(weakref.ref):
    """The intern table's entry: a weak reference to the node that
    remembers its content, so the drop callback can find its row."""

    __slots__ = ("content",)


#: The process-wide intern table, content → weak node reference.  It
#: holds no node alive: a node leaves the table when the last key that
#: uses it is dropped, so the table does not grow across the searches a
#: test process or a pool worker runs.
_NODES: Dict[tuple, _NodeRef] = {}


def _forget(ref: _NodeRef, _nodes=_NODES) -> None:
    # A content interned again after its node died holds a new entry,
    # which the old reference's callback must leave alone.
    if _nodes.get(ref.content) is ref:
        del _nodes[ref.content]


def intern_node(cls, content: tuple) -> KeyNode:
    """The live ``cls`` node over ``content``, made on first use.

    The two node kinds share the table; their contents never coincide,
    since a chain's starts with ``None`` or a chain node and a
    sequence's holds tuples only."""
    ref = _NODES.get(content)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = object.__new__(cls)
    node.content = content
    ref = _NodeRef(node, _forget)
    ref.content = content
    _NODES[content] = ref
    return node


def interned_nodes() -> int:
    """How many key nodes are alive in this process."""
    return len(_NODES)


def key_with_event(key: tuple, first: int, threads, tid: Tid, desc) -> tuple:
    """``key`` with thread ``tid``'s chain extended by ``desc``.

    ``threads`` maps each thread that has events in the parent state to
    its events, and ``first`` is the slot of the first of their chains
    (1 after the initialising writes' node, else 0).  A thread's first
    event inserts its chain in tid order."""
    slot = first
    for t in threads:
        if t < tid:
            slot += 1
    if tid in threads:
        node = intern_node(ChainNode, (key[slot], desc))
        return key[:slot] + (node,) + key[slot + 1:]
    node = intern_node(ChainNode, (None, desc))
    return key[:slot] + (node,) + key[slot:]


def derived_order_divergences(state) -> List[str]:
    """Every way the compact derivations disagree with the definitions.

    Rebuilds the state from its materialised relations alone (no
    compact form) and compares, pairwise: ``hb`` masks vs the
    ``(sb ∪ sw)+`` closure, the eco prefix masks vs
    ``(fr ∪ mo ∪ rf)+``, observability (EW/OW/CW) per thread, the SRA
    acyclicity answer, the tag index and sequence-derived sort orders,
    and the canonical key.  Empty list = full agreement.  States
    without a compact form have nothing to check.

    This is the oracle behind the hypothesis property tests
    (tests/test_compact.py) and ``repro fuzz --check-orders``.
    """
    from repro.c11.state import C11State
    from repro.interp.canon import canonical_key

    compact = state.compact
    if compact is None:
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
    "ChainNode",
    "CompactOrders",
    "KeyNode",
    "SeqNode",
    "derived_order_divergences",
    "intern_node",
    "interned_nodes",
    "key_with_event",
]
