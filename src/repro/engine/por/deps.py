"""The per-step dependency relation driving partial-order reduction.

Partial-order reduction is licensed by commutation: Proposition 4.1
(steps of distinct threads commute, ``repro.c11.prestate``) holds
unconditionally for pre-executions, and the RA/SRA event semantics
preserve it whenever two steps touch *disjoint* locations — adding an
event only ever constrains same-location ``mo``/``rf`` choices and the
``hb`` edges reaching the acting thread, neither of which a
different-location step of another thread can alter (DESIGN.md §9).

A step's *footprint* therefore captures everything the reduction may
rely on:

* the shared locations it reads and writes, as reported by
  :meth:`repro.interp.memory_model.MemoryModel.step_footprint` — two
  footprints conflict when they share a location and at least one side
  writes it (an RMW reads *and* writes, so it conflicts with every
  access on its location);
* a *visibility* bit: whether the step can change the control
  observables a configuration hook may inspect (a thread's program
  counter or termination status).  Visible steps are pairwise
  dependent, which keeps every interleaving of control-point changes —
  exactly what label-occupancy properties such as mutual exclusion need
  (the compiled ``control_visible`` bit of DESIGN.md §12).  Visibility
  is only tracked when the exploration actually carries a
  ``check_config`` hook; pure reachability runs leave it off and reduce
  harder.

Silent steps of different threads never conflict through memory (their
footprints are empty); with visibility off they are fully independent.

The explorer tests conflicts on bit masks (:class:`FootprintBits`):
a footprint becomes a ``(touched, written)`` pair of location masks,
and visibility becomes a write to a reserved *control pseudo-location*,
so :func:`masks_conflict` needs no separate visibility term.
:func:`conflicts` is the reference definition the mask test is checked
against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Tuple

from repro.lang.actions import Var


class StepFootprint(NamedTuple):
    """What one pending step may touch: locations plus control visibility."""

    reads: FrozenSet[Var]
    writes: FrozenSet[Var]
    visible: bool = False


#: The footprint of a silent, control-invisible step.
EMPTY_FOOTPRINT = StepFootprint(frozenset(), frozenset(), False)

def conflicts(a: StepFootprint, b: StepFootprint) -> bool:
    """Whether two steps of *distinct* threads may fail to commute.

    Same-location with at least one write, or both control-visible.
    """
    if a.visible and b.visible:
        return True
    if a.writes and (a.writes & b.reads or a.writes & b.writes):
        return True
    return bool(b.writes & a.reads)


#: A footprint as masks: ``(touched, written)``, with ``written``
#: a subset of ``touched``.
StepMasks = Tuple[int, int]

#: The control pseudo-location's bit: every control-visible step writes it.
CONTROL_BIT = 1


def masks_conflict(a: StepMasks, b: StepMasks) -> bool:
    """:func:`conflicts` on masks: one side writes what the other touches.

    Two visible steps both write :data:`CONTROL_BIT`, so they conflict
    through it; a visible and an invisible step do not."""
    return bool(a[1] & b[0] or b[1] & a[0])


class FootprintBits:
    """One search's numbering of locations and thread ids as bits.

    Each location and each thread id gets the next free bit the first
    time the search meets it — thread ids are arbitrary ints, so a
    thread's bit is never ``1 << tid``.  Location bits start above
    :data:`CONTROL_BIT`."""

    __slots__ = ("_locations", "_names", "_threads")

    def __init__(self) -> None:
        self._locations: Dict[Var, int] = {}
        #: bit index -> location (index 0 is the control pseudo-location)
        self._names: List[object] = [None]
        self._threads: Dict[int, int] = {}

    def thread(self, tid: int) -> int:
        """The bit of thread ``tid``."""
        bit = self._threads.get(tid)
        if bit is None:
            bit = self._threads[tid] = 1 << len(self._threads)
        return bit

    def _mask(self, locations: Iterable[Var]) -> int:
        mask = 0
        for var in locations:
            bit = self._locations.get(var)
            if bit is None:
                bit = self._locations[var] = 1 << len(self._names)
                self._names.append(var)
            mask |= bit
        return mask

    def masks(self, fp: StepFootprint) -> StepMasks:
        """``fp`` as ``(touched, written)`` masks."""
        written = self._mask(fp.writes)
        if fp.visible:
            written |= CONTROL_BIT
        return (written | self._mask(fp.reads), written)

    def locations(self, mask: int) -> Iterator[Var]:
        """The locations whose bits ``mask`` sets (control excluded)."""
        names = self._names
        mask &= ~CONTROL_BIT
        while mask:
            low = mask & -mask
            yield names[low.bit_length() - 1]
            mask ^= low


def step_footprint(
    model,
    state,
    tid: int,
    step,
    track_control: bool = False,
) -> StepFootprint:
    """The full footprint of ``step``: model-reported locations plus the
    control-visibility bit (only computed when a config hook is live).

    Visibility is read straight off the compiled table entry
    (DESIGN.md §12): it is a function of the instruction alone."""
    reads, writes = model.step_footprint(state, tid, step)
    visible = track_control and step.control_visible
    if not (reads or writes or visible):
        return EMPTY_FOOTPRINT
    return StepFootprint(reads, writes, visible)


__all__ = [
    "CONTROL_BIT",
    "EMPTY_FOOTPRINT",
    "FootprintBits",
    "StepFootprint",
    "StepMasks",
    "conflicts",
    "masks_conflict",
    "step_footprint",
]
