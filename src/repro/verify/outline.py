"""Proof outlines: per-program-location assertions, checked inductively.

The paper's Peterson proof is organised exactly this way — "at pc_t ∈
{4,5,6} the assertion … holds" — with one preservation argument per
transition (Appendix D).  A :class:`ProofOutline` packages that shape:

* an assertion attached to each *pc vector* predicate (or to every
  state, for global invariants like "turn is update-only");
* :meth:`ProofOutline.check` explores the program and discharges, for
  every transition, the paper's two obligations:

  1. **initialisation** — the outline holds in the initial
     configuration;
  2. **preservation** — if the outline holds at the source of a
     transition, it holds at the target (checked *per transition*, not
     merely per reachable state, matching the inductive proof structure;
     over an exhaustively explored space the two coincide, but failures
     report the offending transition, which is what one debugs with).

This is the semantic counterpart of the syntactic
:class:`~repro.verify.calculus.AssertionContext`; use the outline to
state *what* holds where, and the calculus to replay *why*.

Outline checking is the core of the verification workbench
(``python -m repro verify``, DESIGN.md §10): the named case studies of
:mod:`repro.verify.registry` each pair a program with an outline built
here, and :meth:`ProofOutline.check` follows the engine's
:class:`~repro.engine.plan.SearchPlan`.  Discharge always runs the
unreduced search: the obligations quantify over every reachable
transition, which a reduction prunes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.plan import SearchPlan
from repro.engine.stats import EngineStats
from repro.interp.config import Configuration
from repro.interp.explore import explore
from repro.interp.interpreter import InterpretedStep, initial_configuration
from repro.interp.memory_model import MemoryModel
from repro.interp.ra_model import RAMemoryModel
from repro.lang.actions import Value, Var
from repro.lang.program import Program
from repro.verify.assertions import Assertion
from repro.verify.invariants import Invariant


def _pc_vector(config: Configuration) -> Tuple[int, ...]:
    return config.program.labels


@dataclass
class ObligationFailure:
    """One failed proof obligation."""

    kind: str  # "initialisation" | "preservation"
    invariant: str
    step: Optional[InterpretedStep] = None

    def __str__(self) -> str:
        if self.step is None:
            return f"{self.kind} of {self.invariant} failed"
        label = str(self.step.event) if self.step.event is not None else "τ"
        pcs = "⟨{}⟩ → ⟨{}⟩".format(
            ",".join(map(str, _pc_vector(self.step.source))),
            ",".join(map(str, _pc_vector(self.step.target))),
        )
        return (
            f"{self.kind} of {self.invariant} failed across {label} "
            f"by thread {self.step.tid} at pc {pcs}"
        )


@dataclass
class OutlineReport:
    """Outcome of checking a proof outline."""

    obligations_discharged: int = 0
    truncated: bool = False
    failures: List[ObligationFailure] = field(default_factory=list)
    #: per-invariant obligation counts: name -> (discharged, failed)
    per_invariant: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: the discharging exploration's engine statistics (counts,
    #: strategy, key cache, phase timings) — what the parallel runner's
    #: verify jobs aggregate into the suite footer
    stats: EngineStats = field(default_factory=EngineStats)

    @property
    def failed_obligations(self) -> int:
        """Every failed obligation, counted per invariant — not the
        ``failures`` list, which ``keep_failures`` caps."""
        return sum(bad for _, bad in self.per_invariant.values())

    @property
    def proved(self) -> bool:
        return self.failed_obligations == 0

    def row(self) -> str:
        verdict = "OK" if self.proved else f"{self.failed_obligations} FAILED"
        bound = " (bounded)" if self.truncated else ""
        return (
            f"configs={self.stats.configs} "
            f"transitions={self.stats.transitions} "
            f"obligations={self.obligations_discharged} {verdict}{bound}"
        )

    def _count(self, name: str, failed: bool) -> None:
        ok, bad = self.per_invariant.get(name, (0, 0))
        self.per_invariant[name] = (ok + (not failed), bad + failed)
        self.obligations_discharged += 1


class ProofOutline:
    """A collection of named, location-indexed assertions."""

    def __init__(self) -> None:
        self._invariants: List[Invariant] = []

    def everywhere(self, name: str, assertion: Assertion) -> "ProofOutline":
        """A global invariant (holds in every reachable configuration)."""
        self._invariants.append(Invariant(name, assertion))
        return self

    def at(
        self, name: str, pcs: Mapping[int, Sequence[int]], assertion: Assertion
    ) -> "ProofOutline":
        """An assertion guarded by program locations.

        ``pcs`` maps thread ids to the pc values at which the assertion
        must hold, e.g. ``{1: (5,), 2: (4, 5, 6)}`` reads "whenever
        thread 1 is at 5 and thread 2 in {4,5,6}".
        """
        from repro.verify.assertions import Implies, PCIn, all_of

        guard = all_of([PCIn(t, tuple(v)) for t, v in sorted(pcs.items())])
        self._invariants.append(Invariant(name, Implies(guard, assertion)))
        return self

    @property
    def invariants(self) -> Tuple[Invariant, ...]:
        return tuple(self._invariants)

    # ------------------------------------------------------------------

    def holds(self, config: Configuration) -> bool:
        return all(inv.holds(config) for inv in self._invariants)

    def check(
        self,
        program: Program,
        init_values: Mapping[Var, Value],
        model: Optional[MemoryModel] = None,
        plan: SearchPlan = SearchPlan(),
        keep_failures: int = 10,
    ) -> OutlineReport:
        """Discharge initialisation + per-transition preservation.

        The discharging exploration follows ``plan``.  Discharge stays
        unreduced: the obligations quantify over every reachable
        transition, and ``explore`` rejects a reducing plan for such a
        ``check_step`` hook with ``ValueError`` (DESIGN.md §10).
        """
        model = model if model is not None else RAMemoryModel()
        report = OutlineReport()

        initial = initial_configuration(program, init_values, model)
        for inv in self._invariants:
            failed = not inv.holds(initial)
            report._count(inv.name, failed)
            if failed:
                report.failures.append(
                    ObligationFailure("initialisation", inv.name)
                )

        def on_step(step: InterpretedStep) -> List[str]:
            if not self.holds(step.source):
                return []  # vacuous: source outside the outline
            for inv in self._invariants:
                failed = not inv.holds(step.target)
                report._count(inv.name, failed)
                if failed and len(report.failures) < keep_failures:
                    report.failures.append(
                        ObligationFailure("preservation", inv.name, step)
                    )
            return []

        result = explore(
            program, init_values, model, check_step=on_step, **plan.options()
        )
        report.truncated = result.truncated
        report.stats = result.stats

        from repro.obs.trace import tracer

        tr = tracer()
        if tr is not None:
            tr.emit(
                "outline",
                name=", ".join(inv.name for inv in self._invariants[:4])
                + ("..." if len(self._invariants) > 4 else ""),
                model=getattr(model, "name", type(model).__name__),
                obligations=report.obligations_discharged,
                failed=report.failed_obligations,
            )
        return report


def peterson_outline() -> ProofOutline:
    """The paper's Peterson proof as a proof outline (Section 5.2)."""
    from repro.casestudies.peterson import FLAG, TURN, TRUE, FALSE
    from repro.verify.assertions import DV, Or, UpdateOnly, VO

    outline = ProofOutline()
    outline.everywhere("(4) turn update-only", UpdateOnly(TURN))
    outline.everywhere("(5) turn =1 2 ∨ turn =2 1", Or(DV(TURN, 1, 2), DV(TURN, 2, 1)))
    for t in (1, 2):
        other = 3 - t
        outline.at(
            f"(6) t{t}", {t: (3, 4, 5, 6)}, DV(FLAG[t], t, TRUE)
        )
        outline.at(
            f"(7) t{t}", {t: (4, 5, 6)}, VO(FLAG[t], TURN)
        )
        outline.at(
            f"(8) t{t}",
            {t: (4, 5, 6), other: (4, 5, 6)},
            Or(DV(FLAG[other], t, TRUE), DV(TURN, other, t)),
        )
        outline.at(
            f"(9) t{t}", {t: (5,), other: (4, 5, 6)}, DV(TURN, other, t)
        )
        outline.at(f"(10) t{t}", {t: (2,)}, DV(FLAG[t], t, FALSE))
    return outline
