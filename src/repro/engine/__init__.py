"""The exploration engine subsystem (DESIGN.md §5).

The engine is everything between "here is a program and a memory model"
and "here is what is reachable":

* :mod:`repro.engine.frontier` — pluggable search strategies (BFS,
  DFS) behind a :class:`~repro.engine.frontier.Frontier` abstraction;
* :mod:`repro.engine.plan` — :class:`~repro.engine.plan.SearchPlan`,
  every option of one search, validated once;
* :mod:`repro.engine.keys` — the canonical-key memoization layer, which
  guarantees each state object is canonicalised at most once per
  process;
* :mod:`repro.engine.core` — the bounded exhaustive search itself,
  instrumented with :class:`~repro.engine.stats.EngineStats`;
* :mod:`repro.engine.por` — partial-order reduction (parsimonious
  DPOR) consulted by ``explore(..., reduction=...)``
  (DESIGN.md §9);
* :mod:`repro.engine.parallel` — a multiprocessing runner fanning the
  litmus suite, case studies and fuzz campaigns across workers.

:mod:`repro.interp.explore` re-exports the core entry points for
backwards compatibility; new code may import from either.
"""

from repro.engine.frontier import (
    BFSFrontier,
    DFSFrontier,
    Frontier,
    STRATEGIES,
    frontier_class,
)
from repro.engine.keys import cached_canonical_key
from repro.engine.stats import EngineStats
from repro.engine.core import (
    ConfigKey,
    ExplorationResult,
    Violation,
    explore,
    reachable_states,
)
from repro.engine.plan import REDUCTIONS, SearchPlan

__all__ = [
    "BFSFrontier",
    "ConfigKey",
    "DFSFrontier",
    "EngineStats",
    "ExplorationResult",
    "Frontier",
    "REDUCTIONS",
    "STRATEGIES",
    "SearchPlan",
    "Violation",
    "cached_canonical_key",
    "explore",
    "frontier_class",
    "reachable_states",
]
