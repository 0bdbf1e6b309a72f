"""Differential oracles: what makes a generated program *pass*.

Seven independent checks (the fifth through seventh are opt-in):

1. **Refinement chain** — the outcome sets (final values of every
   variable over terminal configurations) must nest along the model
   hierarchy::

       outcomes(SC)  ⊆  outcomes(SRA)  ⊆  outcomes(RA)

   SC is an interleaving of atomic accesses, SRA is RA restricted to
   ``sb ∪ rf ∪ mo``-acyclic states, RA is the paper's model — every
   stronger model's behaviours must be reproducible by the weaker one.

2. **Soundness agreement** (operational vs axiomatic, Theorem 4.4) —
   every distinct C11 state reachable under the RA semantics must
   satisfy Definition 4.2 (:func:`repro.axiomatic.validity.check_validity`).

3. **Axiomatic equivalence on the footprint** — re-run the E1
   comparison (:func:`repro.axiomatic.equivalence.compare_axiomatisations`)
   on every candidate space a small program's shape clamps to (at most
   ``AXIOMATIC_MAX_EVENTS`` events over at most ``AXIOMATIC_MAX_VARS``
   variables; values clamped to ``(1,)``).  The verdict is a property
   of the space, not of a program, so this oracle is not part of
   :func:`check_program`: a campaign judges each space once, as a
   batch-level :class:`~repro.fuzz.runner.FootprintJob`.

4. **POR parity** — re-explore the program under RA with the selected
   partial-order reduction (``"optimal"`` by default, DESIGN.md §9):
   the continuous soundness check of :mod:`repro.engine.por`.

5. **Derived-order parity** (``check_orders=True`` / ``repro fuzz
   --check-orders``, off by default) — on every distinct RA-reachable
   state, the compact representation's incremental ``hb``/``eco``
   bitmasks, observability sets, tag tables and canonical key must
   agree with the definitional closures recomputed from the
   materialised relations
   (:func:`repro.c11.compact.derived_order_divergences`, DESIGN.md
   §11).  A reachable state without the compact form is itself a
   divergence: every state grown from ``initial_state`` carries it.

6. **Shard parity** (``check_shards=True`` / ``repro fuzz
   --check-shards``, off by default) — re-explore the program under RA
   hash-partitioned across three shards (DESIGN.md §15), in the
   in-process superstep schedule the worker processes also run.

7. **Fault parity** (``check_faults=True`` / ``repro fuzz
   --check-faults``, off by default) — interrupt a checkpointed
   re-exploration midway (:mod:`repro.faults`, DESIGN.md §16) and
   resume it from the checkpoint it left behind.

Oracles 4, 6 and 7 are the *parity legs* (:func:`parity_legs`): each is
a variant :class:`~repro.engine.plan.SearchPlan` of one base plan, and
one comparison judges them all.  The variant run must reach the full
search's terminal outcome set and truncation flag; its visited-
configuration count may only shrink under a reduction and must match
exactly under sharding and recovery, which partition or replay the very
same search.

A run that hits an exploration bound (``max_events`` slack exceeded or
the ``max_configs`` safety cap) is reported *inconclusive*, never
divergent: a truncated outcome set could fail the subset check
spuriously.  Generated cases carry an exact static bound
(``events_hint``), so in practice fuzz runs never truncate.

The model table :data:`ORACLE_MODELS` is module state on purpose: tests
monkeypatch an intentionally broken model into it and assert the fuzzer
catches and shrinks the divergence.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.engine.plan import SearchPlan
from repro.engine.stats import EngineStats
from repro.faults import FaultInterrupt, FaultPlan, clear_plan, set_plan
from repro.interp.explore import explore, reachable_states
from repro.interp.memory_model import MemoryModel
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.interp.sra_model import SRAMemoryModel
from repro.lang.actions import Value, Var
from repro.litmus.registry import final_values

from repro.fuzz.generator import GeneratedCase

#: model name -> factory, in refinement order (strongest first).  Tests
#: monkeypatch entries to plant deliberately broken models.
ORACLE_MODELS: Dict[str, Callable[[], MemoryModel]] = {
    "sc": SCMemoryModel,
    "sra": SRAMemoryModel,
    "ra": RAMemoryModel,
}

#: the subset chain asserted between consecutive entries
REFINEMENT_CHAIN: Tuple[str, ...] = ("sc", "sra", "ra")

#: hard safety net on any single exploration — a buggy model that stops
#: terminating trips this cap and the run is reported inconclusive
#: instead of hanging the fuzzer
DEFAULT_MAX_CONFIGS = 50_000

#: the footprint equivalence oracle's largest space (cost is
#: exponential in both; 3 events over 2 variables ≈ 0.2 s)
AXIOMATIC_MAX_EVENTS = 3
AXIOMATIC_MAX_VARS = 2

Outcome = Tuple[Tuple[Var, Value], ...]


@dataclass
class OracleReport:
    """What the oracles concluded about one case."""

    case: GeneratedCase
    #: divergence kind ("refinement" / "soundness" / "por-parity" /
    #: "orders" / "shard-parity" / "fault-parity" / "crash"), or
    #: ``None`` when every oracle passed
    divergence: Optional[str] = None
    detail: str = ""
    #: a bound was hit; no divergence verdict is possible
    inconclusive: bool = False
    outcomes: Dict[str, FrozenSet[Outcome]] = field(default_factory=dict)
    terminal: int = 0
    #: every exploration this case ran, merged (:meth:`EngineStats.merge`)
    stats: EngineStats = field(default_factory=EngineStats)

    @property
    def ok(self) -> bool:
        return self.divergence is None


def _outcome_set(terminal_configs) -> FrozenSet[Outcome]:
    return frozenset(
        tuple(sorted(final_values(config).items()))
        for config in terminal_configs
    )


def _format_outcome(outcome: Outcome) -> str:
    return "{" + ", ".join(f"{x}={v}" for x, v in outcome) + "}"


@lru_cache(maxsize=64)
def _footprint_equivalence(n_events: int, n_variables: int) -> str:
    """Run the E1 comparison on a clamped footprint space.

    Returns a failure description ("" = the axiomatisations agree).
    Candidate spaces are symbolic in variable names, so the footprint is
    keyed by variable *count*.  The cache serves repeated campaigns in
    one process; within a batch the runner already judges each space
    once.
    """
    from repro.axiomatic.candidates import CandidateSpace
    from repro.axiomatic.equivalence import compare_axiomatisations

    variables = ("x", "y")[:n_variables]
    space = CandidateSpace(
        n_events=n_events, variables=variables, values=(1,), max_threads=2
    )
    result = compare_axiomatisations(space, keep_mismatches=1)
    if result.equivalent:
        return ""
    return (
        f"axiomatisations disagree on {len(result.mismatches)} of "
        f"{result.candidates} candidates (n={n_events}, vars={variables})"
    )


class Leg(NamedTuple):
    """One parity leg: a variant run of the RA search that must
    reproduce the full one (oracles 4, 6 and 7)."""

    #: the divergence kind the leg reports
    kind: str
    label: str
    plan: SearchPlan
    #: the visited-configuration count must match; otherwise it may
    #: only shrink
    exact: bool
    #: interrupt the run midway and resume it from its checkpoint
    interrupt: bool = False


def parity_legs(
    base: SearchPlan,
    reduction: str = "optimal",
    check_shards: bool = False,
    check_faults: bool = False,
) -> List[Leg]:
    """The variant runs :func:`check_program` compares with the full
    search, each planned from ``base``.  Building them validates the
    settings: an invalid one raises ``ValueError`` before anything
    runs."""
    legs = []
    if reduction != "none":
        legs.append(Leg(
            "por-parity", f"reduction={reduction}",
            replace(base, reduction=reduction), exact=False,
        ))
    if check_shards:
        # always the in-process superstep schedule: deterministic and
        # fork-free, also inside a daemonic pool worker
        legs.append(Leg(
            "shard-parity", "shards=3",
            replace(base, shards=3, shard_processes=False), exact=True,
        ))
    if check_faults:
        legs.append(Leg(
            "fault-parity", "interrupt+resume", base, exact=True,
            interrupt=True,
        ))
    return legs


def _run_leg(
    case: GeneratedCase, model: Callable[[], MemoryModel], leg: Leg, full
):
    """Run ``leg``'s variant of the RA search on ``case``.

    The interrupting leg stops after half the full search's
    configurations and resumes from the checkpoint the interrupt left
    behind; interrupted before the first snapshot landed, recovery
    degenerates to a fresh run.  It runs in-process, so the oracle is
    safe inside daemonic pool workers.
    """
    if not leg.interrupt:
        return explore(case.program, case.init, model(), **leg.plan.options())
    half = max(1, full.configs // 2)
    workdir = tempfile.mkdtemp(prefix="repro-fault-oracle-")
    try:
        durable = replace(
            leg.plan, checkpoint=os.path.join(workdir, "case.ckpt"),
            checkpoint_every=max(1, half // 2),
        )
        set_plan(FaultPlan(f"interrupt:configs={half}"))
        try:
            return explore(case.program, case.init, model(), **durable.options())
        except FaultInterrupt as exc:
            clear_plan()
            resumed = replace(leg.plan, resume=exc.checkpoint)
            return explore(case.program, case.init, model(), **resumed.options())
    finally:
        clear_plan()
        shutil.rmtree(workdir, ignore_errors=True)


def check_program(
    case: GeneratedCase,
    max_configs: Optional[int] = DEFAULT_MAX_CONFIGS,
    models: Optional[Dict[str, Callable[[], MemoryModel]]] = None,
    reduction: str = "optimal",
    check_orders: bool = False,
    check_shards: bool = False,
    check_faults: bool = False,
) -> OracleReport:
    """Run every per-program oracle on ``case`` and report the first
    divergence (the footprint oracle is batch-level, see oracle 3).

    ``reduction`` selects the reduction oracle 4 checks (``"none"``
    disables it); ``check_orders``, ``check_shards`` and
    ``check_faults`` turn on oracles 5, 6 and 7.  Invalid settings
    raise ``ValueError`` before anything runs.
    """
    models = models if models is not None else ORACLE_MODELS
    report = OracleReport(case)
    # +1 slack: the hint is an exact upper bound, so reaching it is
    # legitimate and only *exceeding* it marks a runaway model
    base = SearchPlan(max_events=case.events_hint + 1, max_configs=max_configs)
    legs = parity_legs(base, reduction, check_shards, check_faults)

    ra_states = []
    for name in REFINEMENT_CHAIN:
        try:
            if name == "ra":
                # one exploration yields both the outcome set and every
                # distinct reachable state for the soundness oracle
                ra_states, result = reachable_states(
                    case.program, case.init, models[name](),
                    max_events=base.max_events, max_configs=base.max_configs,
                )
            else:
                result = explore(
                    case.program, case.init, models[name](), **base.options()
                )
        except Exception as exc:  # noqa: BLE001 — a crash IS a finding
            report.divergence = "crash"
            report.detail = f"{name} exploration raised {type(exc).__name__}: {exc}"
            return report
        report.terminal += len(result.terminal)
        report.stats.merge(result.stats)
        if name == "ra":
            full = result
        if result.truncated:
            report.inconclusive = True
            report.detail = f"{name} exploration hit a bound; no verdict"
            return report
        report.outcomes[name] = _outcome_set(result.terminal)

    # 1. the refinement chain
    for weak, strong in zip(REFINEMENT_CHAIN, REFINEMENT_CHAIN[1:]):
        missing = report.outcomes[weak] - report.outcomes[strong]
        if missing:
            witness = _format_outcome(sorted(missing)[0])
            report.divergence = "refinement"
            report.detail = (
                f"outcome {witness} reachable under {weak} but not under "
                f"{strong} ({len(missing)} such outcome(s))"
            )
            return report
    if not report.outcomes["sc"]:
        report.divergence = "refinement"
        report.detail = "no terminal SC state: generated program does not terminate"
        return report

    # 2. operational-vs-axiomatic soundness (Theorem 4.4)
    from repro.axiomatic.validity import check_validity

    for state in ra_states:
        validity = check_validity(state)
        if not validity.valid:
            report.divergence = "soundness"
            report.detail = (
                "RA-reachable state violates Definition 4.2: "
                + ", ".join(validity.violated)
            )
            return report

    # 5. derived-order parity: compact vs definitional (DESIGN.md §11)
    if check_orders:
        from repro.c11.compact import derived_order_divergences

        for state in ra_states:
            if state.compact is None:
                # every state grown from initial_state carries the form
                # (DESIGN.md §11); without it the check below is vacuous
                report.divergence = "orders"
                report.detail = (
                    f"RA-reachable state carries no compact form: {state!r}"
                )
                return report
            problems = derived_order_divergences(state)
            if problems:
                report.divergence = "orders"
                report.detail = (
                    "compact derived orders diverge from the definitional "
                    "closures: " + "; ".join(problems[:3])
                )
                return report

    # 4, 6 and 7. the parity legs
    expected = report.outcomes["ra"]
    for leg in legs:
        try:
            rerun = _run_leg(case, models["ra"], leg, full)
        except Exception as exc:  # noqa: BLE001 — a crash IS a finding
            report.divergence = "crash"
            report.detail = (
                f"ra exploration under {leg.label} raised "
                f"{type(exc).__name__}: {exc}"
            )
            return report
        report.stats.merge(rerun.stats)
        if rerun.capped:
            # A capped variant explored a different prefix than the full
            # search (shards even cap per shard), so its outcome set is
            # incomplete: neither green nor a divergence is honest.
            report.inconclusive = True
            report.detail = f"{leg.label}: exploration hit the config cap; no verdict"
            return report
        outcomes = _outcome_set(rerun.terminal)
        if outcomes != expected:
            missing, extra = expected - outcomes, outcomes - expected
            witness = _format_outcome(sorted(missing or extra)[0])
            problem = (
                f"outcome {witness} {'lost' if missing else 'invented'} "
                f"({len(missing)} missing, {len(extra)} extra)"
            )
        elif rerun.truncated != full.truncated:
            problem = (
                f"truncation flag diverged ({rerun.truncated} vs "
                f"{full.truncated})"
            )
        elif rerun.configs > full.configs or (
            leg.exact and rerun.configs != full.configs
        ):
            problem = (
                f"visited {rerun.configs} distinct configurations against "
                f"the full search's {full.configs} (the count must "
                f"{'match' if leg.exact else 'not grow'})"
            )
        else:
            continue
        report.divergence = leg.kind
        report.detail = f"{leg.label}: {problem}"
        return report

    return report


__all__ = [
    "AXIOMATIC_MAX_EVENTS",
    "AXIOMATIC_MAX_VARS",
    "DEFAULT_MAX_CONFIGS",
    "Leg",
    "ORACLE_MODELS",
    "OracleReport",
    "REFINEMENT_CHAIN",
    "check_program",
    "parity_legs",
]
