"""Events: tagged, thread-attributed actions (paper, Section 3.1).

``Evt = G × Act_τ × T``: an event pairs an action with a *tag* (unique
within an execution) and the identifier of the thread that performed it.
The paper's accessors ``tag(e)``, ``act(e)``, ``tid(e)``, ``var(e)``,
``rdval(e)`` and ``wrval(e)`` are attributes/properties here.

Event classes (Section 3.1)::

    U    — RMW updates            e.is_update
    WrR  — releasing writes ⊇ U   e.is_release and e.is_write
    RdA  — acquiring reads  ⊇ U   e.is_acquire and e.is_read
    WrX  — relaxed writes         e.is_write and not e.is_release
    RdX  — relaxed reads          e.is_read and not e.is_acquire
    Wr   — all writes             e.is_write
    Rd   — all reads              e.is_read
    IWr  — initialising writes    e.is_init  (tid = 0)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.lang.actions import Action, Value, Var, wr
from repro.lang.program import INIT_TID, Tid

Tag = int


@dataclass(frozen=True)
class Event:
    """One event ``(γ, a, t)`` of an execution."""

    tag: Tag
    action: Action
    tid: Tid

    def __hash__(self) -> int:
        # Events live in frozensets and relation pair-sets that are
        # hashed constantly on the exploration hot path; the generated
        # dataclass hash would recompute the field-tuple hash each time.
        # (Defining __hash__ in the class body makes @dataclass keep it.)
        try:
            return self._hash
        except AttributeError:
            h = hash((self.tag, self.action, self.tid))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # Pickle by constructor arguments: cheaper than copying the
        # instance dict, and the cached hash (str hashing is salted per
        # process, PYTHONHASHSEED) never crosses a pickle boundary.
        return (Event, (self.tag, self.action, self.tid))

    def described(self, identity) -> tuple:
        """The canonical-key description of this event under a canonical
        identity: ``(*identity, kind, var, rdval, wrval)``.

        The single source of the key encoding — used by the fresh
        derivation (:func:`repro.interp.canon.canonical_key`) and by the
        incremental key propagation in both state kinds, which must
        produce byte-identical tuples (DESIGN.md §11).
        """
        a = self.action
        return (*identity, a.kind.value, a.var, a.rdval, a.wrval)

    # -- paper accessors (lifted from the action) -----------------------

    @property
    def var(self) -> Optional[Var]:
        return self.action.var

    @property
    def rdval(self) -> Optional[Value]:
        return self.action.rdval

    @property
    def wrval(self) -> Optional[Value]:
        return self.action.wrval

    @property
    def is_read(self) -> bool:
        return self.action.is_read

    @property
    def is_write(self) -> bool:
        return self.action.is_write

    @property
    def is_update(self) -> bool:
        return self.action.is_update

    @property
    def is_acquire(self) -> bool:
        return self.action.is_acquire

    @property
    def is_release(self) -> bool:
        return self.action.is_release

    @property
    def is_init(self) -> bool:
        """Whether this is an initialising write (``tid = 0``)."""
        return self.tid == INIT_TID

    def __str__(self) -> str:
        return f"{self.action}@{self.tid}#{self.tag}"

    def __repr__(self) -> str:
        return f"Event({self.tag}, {self.action!s}, t{self.tid})"


# ----------------------------------------------------------------------
# Tag supply
# ----------------------------------------------------------------------

_COUNTER = itertools.count(1)


def fresh_tag() -> Tag:
    """A globally fresh tag.

    Exploration code prefers deterministic per-state tags (the next free
    integer of the state, see ``C11State.next_tag``); this global supply
    exists for ad-hoc construction in tests and examples.
    """
    return next(_COUNTER)


def init_write(x: Var, value: Value, tag: Tag) -> Event:
    """An initialising write ``wr_0(x, value)``.

    Initialising writes are relaxed writes of the reserved thread 0; the
    initial state places them sb-before every other event (Section 3.1).
    """
    return Event(tag, wr(x, value), INIT_TID)


def init_events(values: dict, start_tag: Tag = -1) -> Iterator[Event]:
    """Initialising writes for a ``{var: value}`` map.

    Tags count *down* from ``start_tag`` so that initialisation tags are
    negative and never collide with the positive tags handed to program
    events — which also makes pretty-printed executions easy to read.
    """
    tag = start_tag
    for x in sorted(values):
        yield init_write(x, values[x], tag)
        tag -= 1
