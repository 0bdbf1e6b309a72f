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
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple

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
    "EMPTY_FOOTPRINT",
    "StepFootprint",
    "conflicts",
    "step_footprint",
]
