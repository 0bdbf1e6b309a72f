"""Bounded exhaustive exploration of interpreted configurations.

Historical home of the model-checking loop, kept as the stable public
API: the implementation now lives in the engine subsystem
(:mod:`repro.engine`, DESIGN.md §5), which adds pluggable search
strategies (BFS / DFS), a canonical-key
memoization layer and per-run engine statistics.  Everything importable
from here before the extraction is still importable from here:

* :func:`explore` — bounded exhaustive search from ``(P, σ_0)``;
* :func:`reachable_states` — distinct reachable memory states;
* :class:`ExplorationResult`, :class:`Violation` — what a run learned;
* ``ConfigKey``, ``_key_of``, ``_state_size`` — keying helpers.

See :mod:`repro.engine.core` for the engine's own documentation.
"""

from __future__ import annotations

from repro.engine.core import (
    ConfigKey,
    ExplorationResult,
    Violation,
    _key_of,
    _state_size,
    explore,
    reachable_states,
)
from repro.engine.plan import REDUCTIONS

__all__ = [
    "ConfigKey",
    "ExplorationResult",
    "REDUCTIONS",
    "Violation",
    "explore",
    "reachable_states",
]
