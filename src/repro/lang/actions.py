"""Memory actions.

The uninterpreted semantics of commands generates actions from the set
(paper, Section 2.2)::

    Act = ⋃ { rd(x,n), rdA(x,n), wr(x,n), wrR(x,n), updRA(x,m,n) }

plus the silent action ``τ``.  Synchronisation annotations are carried by
the *kind* of the action: ``rdA`` is an acquiring read, ``wrR`` a
releasing write, and ``updRA`` a release-acquire update (the paper's
``swap`` only comes in the RA flavour).

Actions are pure data — events (``repro.c11.events``) pair an action with
a tag and a thread identifier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

Value = int
Var = str

#: ``object.__setattr__``, bound once: frozen instances set their
#: derived attributes through it (writing ``self.__dict__`` would
#: materialise a dict per instance).
_set = object.__setattr__


#: The definitional kind sets behind the flags, by kind value.
_READS = frozenset({"rd", "rdA", "updRA"})
_WRITES = frozenset({"wr", "wrR", "updRA"})
_ACQUIRES = frozenset({"rdA", "updRA"})
_RELEASES = frozenset({"wrR", "updRA"})
#: The flag names, shared by kinds and actions.
FLAGS = ("is_read", "is_write", "is_update", "is_acquire", "is_release", "is_silent")


class ActionKind(enum.Enum):
    """The five action flavours of the RAR fragment, plus ``τ``.

    The classification flags (``is_read``, ``is_write``, ``is_update``,
    ``is_acquire``, ``is_release``, ``is_silent``) are plain member
    attributes, computed once per kind from the kind sets above: the
    memory models read them on every transition, where a property call
    per read is measurable (DESIGN.md §2).
    """

    RD = "rd"        # relaxed read
    RDA = "rdA"      # acquiring read
    WR = "wr"        # relaxed write
    WRR = "wrR"      # releasing write
    UPD = "updRA"    # release-acquire update (read-modify-write)
    TAU = "tau"      # silent step (guard resolution, skip elimination)

    def __init__(self, value: str) -> None:
        self.is_read: bool = value in _READS
        self.is_write: bool = value in _WRITES
        self.is_update: bool = value == "updRA"
        #: acquiring actions synchronise as the target of an ``sw`` edge
        self.is_acquire: bool = value in _ACQUIRES
        #: releasing actions synchronise as the source of an ``sw`` edge
        self.is_release: bool = value in _RELEASES
        self.is_silent: bool = value == "tau"


@dataclass(frozen=True)
class Action:
    """One memory action.

    Attributes mirror the paper's accessors: ``var(a)``, ``rdval(a)`` and
    ``wrval(a)``.  For an update ``updRA(x, m, n)``, ``rdval = m`` and
    ``wrval = n``; for plain reads/writes the missing component is
    ``None``.
    """

    kind: ActionKind
    var: Optional[Var] = None
    rdval: Optional[Value] = None
    wrval: Optional[Value] = None

    def __post_init__(self) -> None:
        kind = self.kind
        # Flags and hash are computed once per action, as plain instance
        # attributes: actions are interned, and the models read the flags
        # on every transition (DESIGN.md §2).  The hash is the one the
        # generated dataclass hash would compute, taken once instead of
        # re-hashing the enum member on every event hash.
        for name in FLAGS:
            _set(self, name, getattr(kind, name))
        _set(self, "_hash", hash((kind, self.var, self.rdval, self.wrval)))
        if kind.is_silent:
            if self.var is not None or self.rdval is not None or self.wrval is not None:
                raise ValueError("τ carries no variable or values")
            return
        if self.var is None:
            raise ValueError(f"{kind.value} action requires a variable")
        if kind.is_read and self.rdval is None:
            raise ValueError(f"{kind.value} action requires a read value")
        if kind.is_write and self.wrval is None:
            raise ValueError(f"{kind.value} action requires a write value")
        if kind in (ActionKind.RD, ActionKind.RDA) and self.wrval is not None:
            raise ValueError("plain reads carry no write value")
        if kind in (ActionKind.WR, ActionKind.WRR) and self.rdval is not None:
            raise ValueError("plain writes carry no read value")

    def __hash__(self) -> int:
        # (Defining __hash__ in the class body makes @dataclass keep it.)
        return self._hash

    def __reduce__(self):
        # Pickle by constructor arguments: the cached hash is salted per
        # process (PYTHONHASHSEED) and must never cross a pickle boundary.
        return (Action, (self.kind, self.var, self.rdval, self.wrval))

    def with_rdval(self, value: Value) -> "Action":
        """The same action reading ``value`` instead.

        Proposition 2.2: the uninterpreted semantics is insensitive to the
        value read, so the interpreted semantics may re-instantiate it.
        """
        if not self.kind.is_read:
            raise ValueError("only reads carry a read value")
        return Action(self.kind, self.var, value, self.wrval)

    def __str__(self) -> str:
        k = self.kind
        if k.is_silent:
            return "τ"
        if k is ActionKind.UPD:
            return f"updRA({self.var},{self.rdval},{self.wrval})"
        if k.is_read:
            return f"{k.value}({self.var},{self.rdval})"
        return f"{k.value}({self.var},{self.wrval})"


# ----------------------------------------------------------------------
# Constructors matching the paper's notation
# ----------------------------------------------------------------------

TAU = Action(ActionKind.TAU)

#: Process-wide action interner.  Every explored transition constructs
#: an action, state spaces repeat the same few action shapes millions of
#: times, and ``Action.__post_init__`` validation plus per-field hashing
#: is measurable on the hot path — the constructors below hand out one
#: shared instance per distinct action instead.  Actions are immutable
#: value objects, so interning is observationally silent (equality and
#: hashing are unchanged; ``is`` gets faster as a bonus).  Keyed by the
#: kind's value string, whose hash is cached, rather than by the enum
#: member, whose ``__hash__`` is a Python-level call.
_INTERNED: dict = {}


def intern_action(
    kind: ActionKind,
    var: Optional[Var] = None,
    rdval: Optional[Value] = None,
    wrval: Optional[Value] = None,
) -> Action:
    """The shared :class:`Action` instance for the given components."""
    key = (kind._value_, var, rdval, wrval)
    action = _INTERNED.get(key)
    if action is None:
        action = Action(kind, var, rdval, wrval)
        _INTERNED[key] = action
    return action


def rd(x: Var, n: Value) -> Action:
    """Relaxed read ``rd(x, n)``."""
    return intern_action(ActionKind.RD, x, rdval=n)


def rda(x: Var, n: Value) -> Action:
    """Acquiring read ``rdA(x, n)``."""
    return intern_action(ActionKind.RDA, x, rdval=n)


def wr(x: Var, n: Value) -> Action:
    """Relaxed write ``wr(x, n)``."""
    return intern_action(ActionKind.WR, x, wrval=n)


def wrr(x: Var, n: Value) -> Action:
    """Releasing write ``wrR(x, n)``."""
    return intern_action(ActionKind.WRR, x, wrval=n)


def upd(x: Var, m: Value, n: Value) -> Action:
    """Release-acquire update ``updRA(x, m, n)`` (reads ``m``, writes ``n``)."""
    return intern_action(ActionKind.UPD, x, rdval=m, wrval=n)
