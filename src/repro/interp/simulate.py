"""Randomised simulation — sampling schedules instead of exhausting them.

Bounded exhaustive exploration (``repro.interp.explore``) is the ground
truth but grows exponentially with the event bound.  For larger bounds
this module samples random maximal runs: at every configuration a
uniformly random enabled transition is taken (seeded, hence
reproducible).  Sampling can *refute* safety properties (a hit is a real
counterexample, complete with trace) and estimate outcome frequencies,
but can never verify — the E10 ablation benchmark quantifies that
trade-off against exhaustive search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, List, Mapping, Optional, Tuple, TypeVar

from repro.interp.config import Configuration
from repro.interp.interpreter import (
    InterpretedStep,
    initial_configuration,
    successor_list,
)
from repro.interp.memory_model import MemoryModel
from repro.lang.actions import Value, Var
from repro.lang.program import Program

S = TypeVar("S")


@dataclass
class RunResult(Generic[S]):
    """One sampled maximal run."""

    final: Configuration[S]
    steps: List[InterpretedStep[S]]
    terminated: bool  # program finished (vs. step/event budget exhausted)
    violation: Optional[str] = None


@dataclass
class SimulationReport(Generic[S]):
    """Aggregate over all sampled runs."""

    runs: int = 0
    terminated: int = 0
    violations: List[RunResult[S]] = field(default_factory=list)
    #: outcome key -> frequency (key produced by the caller's classifier)
    outcomes: Dict[object, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def frequency(self, key: object) -> float:
        return self.outcomes.get(key, 0) / self.runs if self.runs else 0.0


def sample_run(
    program: Program,
    init_values: Mapping[Var, Value],
    model: MemoryModel[S],
    rng: random.Random,
    max_steps: int = 200,
    max_events: Optional[int] = None,
    check_config: Optional[Callable[[Configuration[S]], List[str]]] = None,
) -> RunResult[S]:
    """One random maximal run (uniform over enabled transitions)."""
    from repro.engine.core import bound_cut

    config = initial_configuration(program, init_values, model)
    steps: List[InterpretedStep[S]] = []
    for _ in range(max_steps):
        if check_config is not None:
            messages = check_config(config)
            if messages:
                return RunResult(config, steps, False, violation=messages[0])
        if config.is_terminated():
            return RunResult(config, steps, True)
        enabled = successor_list(
            config, model,
            silent_only=bool(bound_cut(config, model, max_events)),
        )
        if not enabled:
            return RunResult(config, steps, False)
        step = rng.choice(enabled)
        steps.append(step)
        config = step.target
    return RunResult(config, steps, config.is_terminated())


def simulate(
    program: Program,
    init_values: Mapping[Var, Value],
    model: MemoryModel[S],
    runs: int = 100,
    seed: int = 0,
    max_steps: int = 200,
    max_events: Optional[int] = None,
    check_config: Optional[Callable[[Configuration[S]], List[str]]] = None,
    classify: Optional[Callable[[Configuration[S]], object]] = None,
    stop_on_violation: bool = False,
) -> SimulationReport[S]:
    """Sample ``runs`` random schedules and aggregate.

    ``classify`` maps a terminal configuration to an outcome key whose
    frequency is tallied (e.g. the tuple of final register values).
    """
    rng = random.Random(seed)
    report: SimulationReport[S] = SimulationReport()
    for _ in range(runs):
        result = sample_run(
            program,
            init_values,
            model,
            rng,
            max_steps=max_steps,
            max_events=max_events,
            check_config=check_config,
        )
        report.runs += 1
        if result.violation is not None:
            report.violations.append(result)
            if stop_on_violation:
                break
        if result.terminated:
            report.terminated += 1
            if classify is not None:
                key = classify(result.final)
                report.outcomes[key] = report.outcomes.get(key, 0) + 1
    return report
