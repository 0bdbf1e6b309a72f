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
``pcs[slot] ← (next_pc, keep(vals, read))`` and no AST is touched —
and since programs are interned per machine state, each such update is
computed once per ``(program, thread, read value)`` and then looked up.
The engine consumes the whole successor batch as a list
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
    ``None`` for τ steps and for SC.  The target configuration is held
    as its two parts, ``target_program`` and ``target_state``, and
    :attr:`target` pairs them on first use: the search keys and stores
    a step's target from the parts, so only the configurations it
    actually queues are ever built (DESIGN.md §12).  A slotted plain
    class rather than a frozen dataclass: the engine constructs one per
    transition on the hot path, where the generated ``__init__``'s
    guarded ``object.__setattr__`` per field is measurable.
    """

    __slots__ = ("source", "tid", "target_program", "target_state", "event",
                 "observed", "read_value", "_target")

    def __init__(
        self,
        source: Configuration[S],
        tid: Tid,
        target_program=None,
        target_state: Optional[S] = None,
        event: Optional[Event] = None,
        observed: Optional[Event] = None,
        read_value: Optional[Value] = None,
        target: Optional[Configuration[S]] = None,
    ) -> None:
        self.source = source
        self.tid = tid
        if target is not None:
            target_program, target_state = target.program, target.state
        self.target_program = target_program
        self.target_state = target_state
        self.event = event
        self.observed = observed
        self.read_value = read_value
        self._target = target

    @property
    def target(self) -> Configuration[S]:
        """The configuration this step reaches (built once, on demand)."""
        target = self._target
        if target is None:
            target = self._target = Configuration(
                self.target_program, self.target_state
            )
        return target

    def __repr__(self) -> str:
        return (
            f"InterpretedStep(tid={self.tid}, event={self.event!r}, "
            f"observed={self.observed!r}, read_value={self.read_value!r})"
        )

    @property
    def is_silent(self) -> bool:
        return self.event is None and self.read_value is None and (
            self.source.state is self.target_state
            or self.source.state == self.target_state
        )


def _build_successors(
    config: Configuration[S], answers
) -> List[InterpretedStep[S]]:
    """The transitions realising pending steps, given ``answers``:
    ``(tid, step, memory transitions)`` per thread, the transitions
    ``None`` for a τ step.

    The program side of a successor depends only on ``(program, slot,
    read value)``, so it is looked up in the program's successor cache
    and built — and interned (DESIGN.md §12) — on the first miss only.
    """
    program, state = config.program, config.state
    succ = program.succ
    out: List[InterpretedStep[S]] = []
    for tid, step, mts in answers:
        instr = step.instr
        slot = instr.slot
        cache = succ[slot]
        if mts is None:
            target = cache.get(None)
            if target is None:
                if instr.is_branch:
                    if step.taken:
                        pc2, keep = instr.then_pc, instr.then_keep
                    else:
                        pc2, keep = instr.else_pc, instr.else_keep
                else:
                    pc2, keep = instr.next_pc, instr.keep
                vals = step.vals
                nvals = tuple(vals[j] for j in keep) if keep else ()
                target = cache[None] = program.update_slot(slot, pc2, nvals)
            out.append(InterpretedStep(config, tid, target, state))
            continue
        for mt in mts:
            rv = mt.read_value
            target = cache.get(rv)
            if target is None:
                keep, vals = instr.keep, step.vals
                nvals = tuple(rv if j < 0 else vals[j] for j in keep) if keep else ()
                target = cache[rv] = program.update_slot(slot, instr.next_pc, nvals)
            out.append(InterpretedStep(
                config, tid, target, mt.target, mt.event, mt.observed, rv,
            ))
    return out


def thread_successor_list(
    config: Configuration[S], model: MemoryModel[S], tid: Tid, step
) -> List[InterpretedStep[S]]:
    """All interpreted transitions realising one thread's pending step.

    The per-thread slice of :func:`successor_list`, exposed so the
    partial-order reduction layer (:mod:`repro.engine.por`) can expand a
    single selected thread without generating the memory transitions of
    threads it prunes.  Batched: the caller gets the whole list at once.
    """
    mts = None
    if not step.is_silent:
        t0 = _clock()
        mts = model.transitions_list(config.state, tid, step)
        MODEL_TIMER.seconds += _clock() - t0
    return _build_successors(config, ((tid, step, mts),))


def successor_list(
    config: Configuration[S], model: MemoryModel[S], silent_only: bool = False
) -> List[InterpretedStep[S]]:
    """All interpreted transitions from ``config``, as one batch.

    The engine's expansion loop consumes this list directly; it is
    built without a single generator frame or AST node.  The memory
    model is asked about every non-silent pending step first, under one
    clock pair for the whole configuration, and the program side is
    stepped after.  ``silent_only`` expands only the τ steps — what a
    configuration at the event bound keeps
    (:func:`~repro.engine.core.bound_cut`); the memory model is then
    never asked.
    """
    pending = config.program.pending_steps()
    if silent_only:
        answers = [
            (tid, step, None) for tid, step in pending.items() if step.is_silent
        ]
    else:
        state = config.state
        transitions_list = model.transitions_list
        answers = []
        t0 = _clock()
        for tid, step in pending.items():
            answers.append((
                tid, step,
                None if step.is_silent else transitions_list(state, tid, step),
            ))
        MODEL_TIMER.seconds += _clock() - t0
    return _build_successors(config, answers)


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
