"""The process-wide counters every search is charged with (DESIGN.md §5).

Keying (:mod:`repro.engine.keys`), building compact forms and deriving
orders (:mod:`repro.c11.compact`, :mod:`repro.c11.state`) and
memory-model calls (:mod:`repro.interp.interpreter`) all count into the
one :data:`COUNTERS` record of this process.  Its slots are named after
the :class:`~repro.engine.stats.EngineStats` fields they feed, and
:class:`~repro.engine.stats.ProcessCounters` charges each search with
what accrued while it ran.  Pool workers each get their own copy
(fork/spawn isolation).

The module imports nothing, so the lowest layers can count into it
without an import cycle; writers bind :data:`COUNTERS` once at import
time and each increment is one attribute update.
"""

from __future__ import annotations


class Counters:
    """Key-cache hits and misses (a key already on its state, or one
    derived from scratch), compact forms built, and seconds spent
    deriving orders and inside memory models."""

    __slots__ = (
        "key_hits", "key_misses", "states_built", "time_orders", "time_model",
    )

    def __init__(self) -> None:
        self.key_hits = self.key_misses = self.states_built = 0
        self.time_orders = self.time_model = 0.0

    def reading(self) -> tuple:
        """Every counter, in slot order."""
        return tuple(getattr(self, name) for name in self.__slots__)


#: The one counter record of this process.
COUNTERS = Counters()
