"""Partial-order reduction for the exploration engine (DESIGN.md §9, §13).

The engine consults this package before expanding a configuration.
Three reduction tiers, selected by ``explore(..., reduction=...)`` and
``--reduction`` on the ``run`` / ``suite`` / ``fuzz`` / ``verify`` CLI:

``"none"``
    The unreduced graph search (:mod:`repro.engine.core`) — every
    transition of every configuration.
``"sleep"``
    Sleep-set pruning (:mod:`.sleep`): visits every configuration the
    full search visits (hook-safe for *any* ``check_config`` property)
    but skips commutation-redundant transitions.
``"optimal"``
    Parsimonious race-reversal DPOR (:mod:`.optimal`, DESIGN.md §13):
    race detection with vector clocks, races scheduled as minimal
    reversing *views* and replayed by guided descent, sleep sets, and
    sound state pruning — visits a subset of the configurations while
    preserving terminal outcome sets, control-observable violation
    verdicts and truncation flags.

The dependency relation the reductions share lives in :mod:`.deps`;
the per-model location footprints come from
:meth:`repro.interp.memory_model.MemoryModel.step_footprint`.
Soundness is continuously cross-checked against the unreduced search by
the differential-fuzz parity oracle (``repro.fuzz.oracles``) and the
litmus/case-study parity suite (``tests/test_por_parity.py``).
"""

from __future__ import annotations

from repro.engine.por.deps import (
    REDUCTIONS,
    RaceWitness,
    StepFootprint,
    conflicts,
    step_footprint,
)
from repro.engine.por.optimal import explore_optimal
from repro.engine.por.sleep import explore_sleep


def explore_reduced(program, init_values, model, reduction, **kwargs):
    """Dispatch a reduced exploration (``reduction`` in
    ``"sleep"``/``"optimal"``)."""
    if reduction == "sleep":
        return explore_sleep(program, init_values, model, **kwargs)
    if reduction == "optimal":
        return explore_optimal(program, init_values, model, **kwargs)
    raise ValueError(
        f"unknown reduction {reduction!r}; choose from {REDUCTIONS}"
    )


__all__ = [
    "REDUCTIONS",
    "RaceWitness",
    "StepFootprint",
    "conflicts",
    "explore_optimal",
    "explore_reduced",
    "explore_sleep",
    "step_footprint",
]
