"""One step of the interpreted semantics (the two rules of Section 3.3).

Given a configuration ``(P, σ)`` and a memory model ``M``,
:func:`configuration_successors` yields every ``(P', σ')`` with
``(P, σ) ==(w,e)==>M (P', σ')``:

* a silent program step keeps the memory state (first rule);
* any other program step is paired with every memory transition the
  model allows for it (second rule) — in particular a read hole is
  resolved once per admissible value.

Programs are stepped in their lowered form (DESIGN.md §12): a
:class:`~repro.interp.compiled.LoweredProgram` indexes its compiled
table with integer pcs, so the successor program is a tuple update
``pcs[slot] ← (next_pc, keep(vals, read))`` and no AST is touched.  The
engine consumes the whole successor batch as a list
(:func:`successor_list`) instead of hopping through generator frames.
"""

from __future__ import annotations

import time
from typing import Generic, Iterator, List, Optional, TypeVar

from repro.c11.events import Event
from repro.interp.compiled import maybe_lower
from repro.interp.config import Configuration
from repro.interp.memory_model import MODEL_TIMER, MemoryModel
from repro.lang.actions import Value
from repro.lang.program import Tid

S = TypeVar("S")

_clock = time.perf_counter


class InterpretedStep(Generic[S]):
    """One transition of the interpreted semantics.

    ``event``/``observed`` are populated by event-based models (RA, PE);
    ``None`` for τ steps and for SC.  A slotted plain class rather than
    a frozen dataclass: the engine constructs one per transition on the
    hot path, where the generated ``__init__``'s guarded
    ``object.__setattr__`` per field is measurable.
    """

    __slots__ = ("source", "tid", "target", "event", "observed", "read_value")

    def __init__(
        self,
        source: Configuration[S],
        tid: Tid,
        target: Configuration[S],
        event: Optional[Event] = None,
        observed: Optional[Event] = None,
        read_value: Optional[Value] = None,
    ) -> None:
        self.source = source
        self.tid = tid
        self.target = target
        self.event = event
        self.observed = observed
        self.read_value = read_value

    def __repr__(self) -> str:
        return (
            f"InterpretedStep(tid={self.tid}, event={self.event!r}, "
            f"observed={self.observed!r}, read_value={self.read_value!r})"
        )

    @property
    def is_silent(self) -> bool:
        return self.event is None and self.read_value is None and (
            self.source.state is self.target.state
            or self.source.state == self.target.state
        )


def _thread_successors(
    config: Configuration[S], model: MemoryModel[S], tid: Tid, step,
    out: List[InterpretedStep[S]],
) -> None:
    """Append all transitions realising one thread's pending step."""
    program, state = config.program, config.state
    instr = step.instr
    slot = instr.slot
    vals = step.vals
    if step.is_silent:
        if instr.is_branch:
            if step.taken:
                pc2, keep = instr.then_pc, instr.then_keep
            else:
                pc2, keep = instr.else_pc, instr.else_keep
        else:
            pc2, keep = instr.next_pc, instr.keep
        nvals = tuple(vals[j] for j in keep) if keep else ()
        out.append(InterpretedStep(
            source=config,
            tid=tid,
            target=Configuration(program.update_slot(slot, pc2, nvals), state),
        ))
        return
    pc2 = instr.next_pc
    keep = instr.keep
    t0 = _clock()
    mts = model.transitions_list(state, tid, step)
    MODEL_TIMER.seconds += _clock() - t0
    for mt in mts:
        rv = mt.read_value
        nvals = tuple(rv if j < 0 else vals[j] for j in keep) if keep else ()
        out.append(InterpretedStep(
            source=config,
            tid=tid,
            target=Configuration(program.update_slot(slot, pc2, nvals), mt.target),
            event=mt.event,
            observed=mt.observed,
            read_value=rv,
        ))


def thread_successor_list(
    config: Configuration[S], model: MemoryModel[S], tid: Tid, step
) -> List[InterpretedStep[S]]:
    """All interpreted transitions realising one thread's pending step.

    The per-thread slice of :func:`successor_list`, exposed so the
    partial-order reduction layer (:mod:`repro.engine.por`) can expand a
    single selected thread without generating the memory transitions of
    threads it prunes.  Batched: the caller gets the whole list at once.
    """
    out: List[InterpretedStep[S]] = []
    _thread_successors(config, model, tid, step, out)
    return out


def successor_list(
    config: Configuration[S], model: MemoryModel[S]
) -> List[InterpretedStep[S]]:
    """All interpreted transitions from ``config``, as one batch.

    The engine's expansion loop consumes this list directly; it is
    built without a single generator frame or AST node.
    """
    out: List[InterpretedStep[S]] = []
    for tid, step in config.program.pending_steps().items():
        _thread_successors(config, model, tid, step, out)
    return out


def configuration_successors(
    config: Configuration[S], model: MemoryModel[S]
) -> Iterator[InterpretedStep[S]]:
    """All interpreted transitions from ``config`` under ``model``."""
    return iter(successor_list(config, model))


def initial_configuration(
    program, init_values, model: MemoryModel[S]
) -> Configuration[S]:
    """``(P, σ_0)`` for the given model, with ``P`` lowered."""
    return Configuration(maybe_lower(program), model.initial(init_values))
