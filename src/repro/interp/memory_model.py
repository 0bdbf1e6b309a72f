"""The pluggable memory-model interface of the interpreted semantics.

Section 3.3 keeps the program semantics agnostic of the memory model: a
model only needs to say (a) what its initial state is and (b) which
transitions it allows for a given pending program step.  Three models
implement this interface:

* :class:`~repro.interp.ra_model.RAMemoryModel` — the paper's RA event
  semantics (Figure 3);
* :class:`~repro.interp.pe_model.PEMemoryModel` — pre-executions
  (Section 4.1), where reads return arbitrary values from a finite
  domain;
* :class:`~repro.interp.sc.SCMemoryModel` — a sequentially consistent
  store, the baseline that litmus tests are compared against.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, Generic, Hashable, Mapping, Optional, Tuple, TypeVar

from repro.c11.events import Event
from repro.lang.actions import Value, Var
from repro.lang.program import Tid
from repro.lang.semantics import PendingStep

S = TypeVar("S", bound=Hashable)

class ModelTimerStats:
    """Process-wide accumulator of time spent inside memory models.

    The same discipline as :data:`repro.c11.compact.ORDER_TIMER`: the
    interpreter (DESIGN.md §12) charges every ``transitions_list`` call
    here, the engine snapshots the delta around a run as
    ``EngineStats.time_model``, and footers subtract it from
    ``time_expand`` to expose the *program-stepping* share of
    expansion.  Order derivations happen inside model calls, so
    ``time_orders ⊆ time_model ⊆ time_expand``.
    """

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0

    def reset(self) -> None:
        self.seconds = 0.0

    def snapshot(self) -> float:
        return self.seconds

    def __repr__(self) -> str:
        return f"ModelTimerStats(seconds={self.seconds:.3f})"


MODEL_TIMER = ModelTimerStats()

#: Interned footprint pairs, keyed by ``(kind, var)``.  A step's default
#: footprint depends only on its action shape, and the reduction layer
#: recomputes footprints for every pending step at every node — sharing
#: the frozensets keeps that loop allocation-free (DESIGN.md §11).
_FOOTPRINTS: dict = {}
_EMPTY_VARS: FrozenSet["Var"] = frozenset()


class MemoryTransition(Generic[S]):
    """One memory-model answer to a pending program step.

    ``read_value`` fills the step's read hole (``None`` for pure writes);
    ``event`` is the event appended (``None`` for models without events,
    i.e. SC); ``observed`` is the paper's explicit observed write ``w``
    (``None`` for PE — the paper writes its first component as ``⊥``).

    A slotted plain class rather than a frozen dataclass: the models
    build one per transition on the exploration hot path, where the
    generated ``__init__``'s guarded ``object.__setattr__`` per field
    is measurable.
    """

    __slots__ = ("target", "read_value", "event", "observed")

    def __init__(
        self,
        target: S,
        read_value: Optional[Value] = None,
        event: Optional[Event] = None,
        observed: Optional[Event] = None,
    ) -> None:
        self.target = target
        self.read_value = read_value
        self.event = event
        self.observed = observed

    def __repr__(self) -> str:
        return (
            f"MemoryTransition(read_value={self.read_value!r}, "
            f"event={self.event!r}, observed={self.observed!r})"
        )


class MemoryModel(abc.ABC, Generic[S]):
    """A memory model pluggable into the interpreted semantics."""

    #: Human-readable name used in benchmark tables.
    name: str = "abstract"

    #: Whether non-silent steps append events to the state, so that the
    #: event bound applies (``repro.engine.core.bound_cut``).
    records_events: bool = True

    @abc.abstractmethod
    def initial(self, init_values: Mapping[Var, Value]) -> S:
        """The initial memory state for the given initialisation."""

    @abc.abstractmethod
    def transitions_list(
        self, state: S, tid: Tid, step: PendingStep
    ) -> "list[MemoryTransition[S]]":
        """All memory transitions realising ``step`` of thread ``tid``.

        For a silent step the model must allow exactly one transition
        that leaves the state unchanged (the first rule of Section 3.3);
        the interpreter handles that case itself, so implementations
        only see non-silent steps.  The interpreter expands successors
        in batches, so the answer is a materialised list.
        """

    def drop_memo(self, state: S) -> None:
        """Forget whatever this model memoized on ``state``.

        The explorers call this once no queued configuration can ask
        ``transitions_list`` about ``state`` any more
        (:class:`~repro.engine.core.MemoLifetime`, DESIGN.md §12), so a
        per-state memo lives as long as the search frontier needs it
        rather than as long as the state.  Models without a memo keep
        this no-op.
        """

    def canonical_state_key(self, state: S) -> Hashable:
        """A key identifying ``state`` up to irrelevant naming.

        Used by the explorer to deduplicate configurations; the default
        is the state itself (adequate whenever states are already
        canonical, e.g. SC stores).
        """
        return state

    def reads_from_state_key(self, state: S, live_tids) -> Hashable:
        """A key identifying ``state`` up to *reads-from equivalence*.

        The coarser keying behind ``--equivalence reads-from``
        (DESIGN.md §13): states that agree on events, ``rf`` and the
        covered-write mask — but order unobservable dead writes
        differently in ``mo`` — may share a key.  ``live_tids`` are the
        threads that can still take a step.

        The default answers with the canonical key, which is exact for
        models without a modification order (SC, PE) and the documented
        sound fallback for models whose *consistency check* reads the
        full ``mo`` (SRA: ``sb ∪ rf ∪ mo`` acyclicity distinguishes
        dead-write orders, so the quotient would be unsound there).
        RA overrides this with the genuine quotient.
        """
        return self.canonical_state_key(state)

    def step_footprint(
        self, state: S, tid: Tid, step: PendingStep
    ) -> Tuple[FrozenSet[Var], FrozenSet[Var]]:
        """The shared locations ``step`` would read and write.

        The partial-order reduction layer (:mod:`repro.engine.por`)
        derives its dependency relation from this: two steps of distinct
        threads conflict when their footprints share a location with at
        least one write (an RMW reads *and* writes its location, so it
        conflicts with every access there).

        The default reads the pending step's action: silent steps touch
        nothing; reads/writes/updates touch exactly their variable.
        This is exact for any model whose same-state transitions depend
        only on same-location structure and on ``hb`` edges reaching the
        acting thread — which covers SC, RA and SRA (see the per-model
        overrides for the commutation arguments).  A model for which
        disjoint-location steps do *not* commute must override this with
        a wider footprint.  Results are interned per ``(kind, var)``:
        the footprints depend on nothing else, and the reduction layer
        asks for them in its innermost loop.
        """
        if step.is_silent or step.var is None:
            return (_EMPTY_VARS, _EMPTY_VARS)
        key = (step.kind, step.var)
        cached = _FOOTPRINTS.get(key)
        if cached is None:
            var = frozenset((step.var,))
            cached = (var if step.kind.is_read else _EMPTY_VARS,
                      var if step.kind.is_write else _EMPTY_VARS)
            _FOOTPRINTS[key] = cached
        return cached
