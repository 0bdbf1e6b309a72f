"""The proof registry: every case study with a checked outline.

The workbench's front door (``python -m repro verify``, DESIGN.md §10)
resolves *names* to :class:`ProofCaseStudy` entries — a program factory,
its initialisation, an outline factory, the memory models the outline is
stated for, and the event bound that keeps busy-wait state spaces
finite.  Worker processes re-resolve entries from this registry the same
way the suite runner re-resolves litmus tests (everything here is
picklable-by-name, nothing by value).

Every registered (entry × model) pair is expected to *prove*: the
registry is the library of established results, swept wholesale by
``repro verify --all`` and ``tests/test_proof_registry.py``.  Negative
results — the relaxed-turn Peterson, the non-atomic spinlock, Dekker
under RA — live in tests and examples as refutation canaries, not here.

Entries are registered lazily (factories import their case-study module
on first use), so importing :mod:`repro.verify` stays light.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.engine.plan import SearchPlan
from repro.lang.actions import Value, Var

#: Model names an outline may be pinned to (subset of the CLI's models;
#: PE has no meaningful per-thread assertions and SRA adds nothing the
#: outlines can observe over RA, so neither is a registry target).
OUTLINE_MODELS = ("ra", "sc")


@dataclass(frozen=True)
class ProofCaseStudy:
    """One named scenario: a program paired with its proof outline."""

    name: str
    description: str
    #: builds the program (kept as a factory — programs are cheap and
    #: this keeps the entry picklable and the import lazy)
    program: Callable[[], object]
    #: builds the outline
    outline: Callable[[], object]
    #: initial shared-variable values
    init: Mapping[Var, Value] = field(default_factory=dict)
    #: models the outline is stated for (and proves under)
    models: Tuple[str, ...] = ("ra",)
    #: event bound for models with growing states (ignored by SC, whose
    #: busy waits close into cycles and need no unrolling bound)
    max_events: Optional[int] = None

    def check(
        self, model_name: str, model=None, plan: SearchPlan = SearchPlan()
    ):
        """Discharge this entry's obligations under one model, searching
        by ``plan`` with the entry's own event bound in place of the
        plan's."""
        if model is None:
            from repro.interp.memory_model import model_by_name

            model = model_by_name(model_name)
        plan = replace(plan, max_events=self.max_events)
        return self.outline().check(
            self.program(), dict(self.init), model=model, plan=plan
        )


class ProofRegistry:
    """Name → :class:`ProofCaseStudy`, in registration order."""

    def __init__(self) -> None:
        self._entries: Dict[str, ProofCaseStudy] = {}

    def register(self, entry: ProofCaseStudy) -> ProofCaseStudy:
        if entry.name in self._entries:
            raise ValueError(f"duplicate proof case study {entry.name!r}")
        unknown = [m for m in entry.models if m not in OUTLINE_MODELS]
        if unknown:
            raise ValueError(
                f"{entry.name!r} pins unknown models {unknown}; outlines "
                f"are stated for {OUTLINE_MODELS}"
            )
        self._entries[entry.name] = entry
        return entry

    def get(self, name: str) -> ProofCaseStudy:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"unknown case study {name!r}; choose from {self.names()} "
                "(or 'repro verify --list')"
            )

    def names(self) -> List[str]:
        return list(self._entries)

    def entries(self) -> List[ProofCaseStudy]:
        return list(self._entries.values())

    def pairs(self) -> List[Tuple[ProofCaseStudy, str]]:
        """Every (entry, model) combination the registry vouches for."""
        return [(e, m) for e in self.entries() for m in e.models]


#: The library.  Factories import lazily; see the module docstring.
PROOFS = ProofRegistry()


def _program(module: str, factory: str, **kwargs) -> Callable[[], object]:
    def build():
        import importlib

        return getattr(importlib.import_module(module), factory)(**kwargs)

    return build


_CS = "repro.casestudies"

PROOFS.register(ProofCaseStudy(
    name="peterson",
    description="Peterson's algorithm, invariants (4)-(10) (paper §5.2)",
    program=_program(f"{_CS}.peterson", "peterson_program", once=True),
    outline=_program("repro.verify.outline", "peterson_outline"),
    init={"flag1": 0, "flag2": 0, "turn": 1},
    models=("ra",),
    max_events=9,
))

PROOFS.register(ProofCaseStudy(
    name="peterson-sc",
    description="Peterson under SC: the conventional, model-agnostic outline",
    program=_program(f"{_CS}.peterson", "peterson_program", once=True),
    outline=_program(f"{_CS}.peterson", "peterson_outline_sc"),
    init={"flag1": 0, "flag2": 0, "turn": 1},
    models=("sc",),
))

PROOFS.register(ProofCaseStudy(
    name="message-passing",
    description="Example 5.7: release/acquire message passing, DV transfer",
    program=_program(f"{_CS}.message_passing", "message_passing_program"),
    outline=_program(f"{_CS}.message_passing", "mp_outline"),
    init={"d": 0, "f": 0, "r": 0},
    models=("ra",),
    max_events=10,
))

PROOFS.register(ProofCaseStudy(
    name="message-passing-val",
    description="Example 5.7, value-only outline — one outline, two models",
    program=_program(f"{_CS}.message_passing", "message_passing_program"),
    outline=_program(f"{_CS}.message_passing", "mp_outline_valonly"),
    init={"d": 0, "f": 0, "r": 0},
    models=("ra", "sc"),
    max_events=10,
))

PROOFS.register(ProofCaseStudy(
    name="token-ring",
    description="token hand-off lock over an update-only variable",
    program=_program(f"{_CS}.token_ring", "token_ring_program", n_threads=2),
    outline=_program(f"{_CS}.token_ring", "token_ring_outline", n_threads=2),
    init={"token": 1},
    models=("ra",),
    max_events=10,
))

PROOFS.register(ProofCaseStudy(
    name="spinlock-tas",
    description="test-and-set spinlock via the value-returning exchange",
    program=_program(f"{_CS}.spinlock", "spinlock_program"),
    outline=_program(f"{_CS}.spinlock", "spinlock_outline"),
    init={"lock": 0, "r1": 0, "r2": 0},
    models=("ra",),
    max_events=10,
))

PROOFS.register(ProofCaseStudy(
    name="ticket-lock",
    description="ticket lock from fetch-and-add (update-only ticket counter)",
    program=_program(f"{_CS}.ticket_lock", "ticket_lock_program"),
    outline=_program(f"{_CS}.ticket_lock", "ticket_lock_outline"),
    init={"next": 0, "serving": 0, "my1": 0, "my2": 0},
    models=("ra",),
    max_events=12,
))

PROOFS.register(ProofCaseStudy(
    name="seqlock",
    description="seqlock writer/reader: accepted snapshots are consistent",
    program=_program(f"{_CS}.seqlock", "seqlock_program"),
    outline=_program(f"{_CS}.seqlock", "seqlock_outline"),
    init={"seq": 0, "d1": 0, "d2": 0, "s1": 0, "s2": 0,
          "v1": 0, "v2": 0, "ok": 0},
    models=("ra",),
))

PROOFS.register(ProofCaseStudy(
    name="barrier",
    description="flag-handshake barrier: symmetric message passing",
    program=_program(f"{_CS}.barrier", "barrier_program"),
    outline=_program(f"{_CS}.barrier", "barrier_outline"),
    init={"xa": 0, "xb": 0, "a": 0, "b": 0, "ra": 0, "rb": 0},
    models=("ra",),
    max_events=10,
))

PROOFS.register(ProofCaseStudy(
    name="dekker",
    description="Dekker entry protocol — provable under SC only (neg. under RA)",
    program=_program(f"{_CS}.dekker", "dekker_entry_program"),
    outline=_program(f"{_CS}.dekker", "dekker_outline"),
    init={"flag1": 0, "flag2": 0},
    models=("sc",),
))


__all__ = [
    "OUTLINE_MODELS",
    "PROOFS",
    "ProofCaseStudy",
    "ProofRegistry",
]
