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
        a wider footprint.

        Contract: the footprint is a function of ``step`` alone — never
        of ``state`` or ``tid`` beyond what the step itself carries.  A
        model whose footprint must vary with the state over-approximates
        it by the union over all states instead.  The ``optimal``
        reduction relies on this: it computes the footprints of a
        machine state's pending steps once per search, from whichever
        configuration reaches that machine state first, and reuses them
        at every node with the same program
        (:class:`repro.engine.por.optimal._Template`).
        """
        if step.is_silent or step.var is None:
            return (_EMPTY_VARS, _EMPTY_VARS)
        var = frozenset((step.var,))
        return (var if step.kind.is_read else _EMPTY_VARS,
                var if step.kind.is_write else _EMPTY_VARS)


def model_by_name(name: str) -> MemoryModel:
    """A fresh memory model from the name a command or job gives it:
    ``ra``, ``sra`` or ``sc`` in any case.  This is the one name table;
    an unknown name is a :class:`ValueError`."""
    from repro.interp.ra_model import RAMemoryModel
    from repro.interp.sc import SCMemoryModel
    from repro.interp.sra_model import SRAMemoryModel

    factories = {"ra": RAMemoryModel, "sra": SRAMemoryModel, "sc": SCMemoryModel}
    try:
        return factories[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; choose from {sorted(factories)}"
        ) from None
