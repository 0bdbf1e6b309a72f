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
    terminal_states: int
    configs: int
    truncated: bool
    #: the underlying exploration (counts, engine stats); ``None`` only
    #: for outcomes reconstructed from a parallel worker's flat report
    result: Optional["ExplorationResult"] = None

    @property
    def verdict_matches(self) -> bool:
        return self.reachable == self.expected

    def row(self) -> str:
        got = "allowed " if self.reachable else "forbidden"
        ok = "OK" if self.verdict_matches else "** MISMATCH **"
        return (
            f"{self.test.name:<22} {self.model_name:<3} {got} "
            f"(expected {'allowed' if self.expected else 'forbidden'})  "
            f"terminals={self.terminal_states:>4} configs={self.configs:>6}  {ok}"
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
        terminal_states=len(result.terminal),
        configs=result.configs,
        truncated=result.truncated,
        result=result,
    )


def run_suite(
    tests: List[LitmusTest],
    models: Optional[List[MemoryModel]] = None,
    jobs: int = 1,
    plan: SearchPlan = SearchPlan(),
) -> List[LitmusOutcome]:
    """The E7 table: every test under every model.

    With ``jobs > 1`` the (test, model) pairs fan out across worker
    processes via :class:`repro.engine.parallel.ParallelRunner`; the
    workers resolve tests by *name* from the built-in registries and
    models from the ra/sra/sc factories, so fan-out is only attempted
    when every test is the registry's own object and every model is one
    of those three — anything else (modified test copies, custom
    models) falls back to the sequential path rather than silently
    computing verdicts for different inputs.  A model listed twice is
    one job per pair like any other, and yields one outcome per pair.
    Parallel verdicts are identical to the sequential run — the workers
    execute the same code path.
    """
    models = models if models is not None else [RAMemoryModel(), SCMemoryModel()]

    def _parallelizable() -> bool:
        from repro.engine.parallel import _litmus_by_name

        if any(model.name.lower() not in ("ra", "sra", "sc") for model in models):
            return False
        try:
            return all(_litmus_by_name(test.name) is test for test in tests)
        except KeyError:
            return False

    pairs = [(test, model) for test in tests for model in models]
    if jobs <= 1 or not _parallelizable():
        return [run_litmus(test, model, plan) for test, model in pairs]

    from repro.engine.parallel import ParallelRunner, SuiteJob

    # One job per pair, in pair order: the runner returns one result per
    # submitted job, in submission order (a repeated pair runs once and
    # fills each of its slots), so results map back by position.
    work = [
        SuiteJob(kind="litmus", name=test.name, model=model.name.lower(), plan=plan)
        for test, model in pairs
    ]
    results = ParallelRunner(jobs=jobs).run(work)
    return [
        LitmusOutcome(
            test=test,
            model_name=model.name,
            reachable=r.observed,
            expected=r.expected,
            terminal_states=r.terminal,
            configs=r.configs,
            truncated=r.truncated,
        )
        for (test, model), r in zip(pairs, results)
    ]
