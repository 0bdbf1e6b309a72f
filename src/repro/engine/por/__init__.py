"""Partial-order reduction for the exploration engine (DESIGN.md §9, §13).

The engine consults this package before expanding a configuration.
Two reduction tiers, selected by ``explore(..., reduction=...)`` and
``--reduction`` on the ``run`` / ``suite`` / ``fuzz`` CLI:

``"none"``
    The unreduced graph search (:mod:`repro.engine.core`) — every
    transition of every configuration.
``"optimal"``
    Parsimonious race-reversal DPOR (:mod:`.optimal`, DESIGN.md §13):
    race detection with vector clocks, races scheduled as minimal
    reversing *views* and replayed by guided descent, sleep sets, and
    sound state pruning — visits a subset of the configurations while
    preserving terminal outcome sets, control-observable violation
    verdicts and truncation flags.

The dependency relation the reduction uses lives in :mod:`.deps`;
the per-model location footprints come from
:meth:`repro.interp.memory_model.MemoryModel.step_footprint`.
Soundness is continuously cross-checked against the unreduced search by
the differential-fuzz parity oracle (``repro.fuzz.oracles``) and the
litmus/case-study parity suite (``tests/test_por_parity.py``).
"""

from __future__ import annotations

from repro.engine.plan import REDUCTIONS
from repro.engine.por.deps import StepFootprint, conflicts, step_footprint
from repro.engine.por.optimal import explore_optimal


def explore_reduced(program, init_values, model, plan, **hooks):
    """Run ``plan``'s reduced search: ``optimal`` is the one tier."""
    return explore_optimal(program, init_values, model, plan, **hooks)


__all__ = [
    "REDUCTIONS",
    "StepFootprint",
    "conflicts",
    "explore_optimal",
    "explore_reduced",
    "step_footprint",
]
