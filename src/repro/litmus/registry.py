"""Litmus-test infrastructure.

A litmus test pairs a tiny program with a *question*: is the final-state
outcome ``pred(values)`` reachable?  The answer depends on the memory
model — the whole point — so every test carries its expected verdict
under the paper's RA semantics and under sequential consistency
(E7's table compares the two).

Registers are ordinary shared variables written by exactly one thread
(the paper has no thread-local state), so an outcome is a predicate over
the *final value of every variable*: ``wrval(σ.last(x))`` for C11
states, the store content for SC.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional

from repro.c11.state import C11State
from repro.engine.plan import SearchPlan
from repro.interp.config import Configuration
from repro.interp.explore import ExplorationResult, explore
from repro.interp.memory_model import MemoryModel
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.lang.actions import Value, Var
from repro.lang.program import Program


def final_values(config: Configuration) -> Dict[Var, Value]:
    """Final value of every variable in a terminal configuration."""
    state = config.state
    if isinstance(state, C11State):
        out: Dict[Var, Value] = {}
        for x in state.variables():
            last = state.last(x)
            assert last is not None
            out[x] = last.wrval
        return out
    # SC stores are tuples of (var, value) pairs.
    return dict(state)


@dataclass(frozen=True)
class LitmusTest:
    """One litmus test with its expected verdicts."""

    name: str
    description: str
    program: Program
    init: Mapping[Var, Value]
    outcome: Callable[[Dict[Var, Value]], bool]
    outcome_text: str
    allowed_ra: bool
    allowed_sc: bool
    #: Bound on program events; litmus programs are loop-free except MP,
    #: whose busy wait needs a modest unrolling budget.
    max_events: Optional[int] = None


@dataclass
class LitmusOutcome:
    """The result of running one test under one model."""

    test: LitmusTest
    model_name: str
    reachable: bool
    expected: bool
    #: the underlying exploration (terminal states, counts, engine stats)
    result: ExplorationResult

    @property
    def verdict_matches(self) -> bool:
        return self.reachable == self.expected

    def row(self) -> str:
        got = "allowed " if self.reachable else "forbidden"
        ok = "OK" if self.verdict_matches else "** MISMATCH **"
        return (
            f"{self.test.name:<22} {self.model_name:<3} {got} "
            f"(expected {'allowed' if self.expected else 'forbidden'})  "
            f"terminals={len(self.result.terminal):>4} "
            f"configs={self.result.configs:>6}  {ok}"
        )


def run_litmus(
    test: LitmusTest,
    model: Optional[MemoryModel] = None,
    plan: SearchPlan = SearchPlan(),
) -> LitmusOutcome:
    """Decide reachability of the test's outcome under ``model``.

    The search follows ``plan``, with the test's own event bound in
    place of the plan's.  A reduction (DESIGN.md §9, §13) preserves
    the terminal outcome sets litmus verdicts are read from — the POR
    parity suite and CI job assert exactly this, verdict for verdict —
    and so does sharding (DESIGN.md §15), checked test by test in
    ``tests/test_shard_parity.py``.
    """
    model = model if model is not None else RAMemoryModel()
    result = explore(
        test.program, test.init, model,
        **replace(plan, max_events=test.max_events).options(),
    )
    reachable = any(
        test.outcome(final_values(config)) for config in result.terminal
    )
    expected = (
        test.allowed_sc if isinstance(model, SCMemoryModel) else test.allowed_ra
    )
    return LitmusOutcome(
        test=test,
        model_name=model.name,
        reachable=reachable,
        expected=expected,
        result=result,
    )


def run_suite(
    tests: List[LitmusTest],
    models: Optional[List[MemoryModel]] = None,
    plan: SearchPlan = SearchPlan(),
) -> List[LitmusOutcome]:
    """The E7 table: every test under every model, one outcome per
    (test, model) pair in pair order.  ``repro suite`` fans the same
    table out over worker processes through
    :func:`repro.engine.parallel.litmus_jobs`.
    """
    models = models if models is not None else [RAMemoryModel(), SCMemoryModel()]
    return [run_litmus(test, model, plan) for test in tests for model in models]
