"""Differential oracles: what makes a generated program *pass*.

Seven independent checks, cheapest first (the fifth through seventh
are opt-in):

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
   partial-order reduction (``"optimal"`` by default, DESIGN.md §9) and
   require the reduced search to be outcome-identical to the full one:
   same terminal outcome set, same truncation flag, and a visited-
   configuration count that can only shrink.  This is the continuous
   soundness check of :mod:`repro.engine.por` — every fuzz campaign
   cross-validates the reduction against exhaustive exploration on
   every generated program, for free.

5. **Derived-order parity** (``check_orders=True`` / ``repro fuzz
   --check-orders``, off by default) — on every distinct RA-reachable
   state, the compact representation's incremental ``hb``/``eco``
   bitmasks, observability sets, tag tables and canonical key must
   agree with the definitional closures recomputed from the
   materialised relations
   (:func:`repro.c11.compact.derived_order_divergences`, DESIGN.md
   §11).  A reachable state without the compact form is itself a
   divergence: every state grown from ``initial_state`` carries it.
   The continuous soundness check of the compact order engine, run
   over whole campaigns.

6. **Shard parity** (``check_shards=True`` / ``repro fuzz
   --check-shards``, off by default) — re-explore the program under RA
   with the search hash-partitioned across three shards (DESIGN.md
   §15) and require the sharded run to be *exactly* identical to the
   single-process one: same terminal outcome set, same truncation
   flag, and the same visited-configuration count — sharding
   partitions the very same search, it never prunes.  The continuous
   soundness check of :mod:`repro.engine.shard` over whole campaigns.
   Inside daemonic fuzz pool workers the sharded run executes the
   in-process superstep schedule, which is the same code path the
   worker processes run.

7. **Fault parity** (``check_faults=True`` / ``repro fuzz
   --check-faults``, off by default) — inject deterministic faults
   (:mod:`repro.faults`, DESIGN.md §16) into a re-exploration of the
   program and require recovery to be *exactly* outcome- and
   count-identical to the clean search: interrupt the run mid-search
   with checkpoints enabled, then resume from the checkpoint it left
   behind.  The continuous soundness check of the checkpoint/resume
   machinery over whole campaigns.  It runs in-process (fork-free), so
   the oracle is safe inside daemonic pool workers.

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

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.engine.stats import EngineStats
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
    configs: int = 0
    transitions: int = 0
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

    ``reduction`` selects which partial-order reduction the POR-parity
    oracle cross-validates against the full search (``"none"`` disables
    the oracle).
    ``check_orders`` additionally replays the compact derived-order
    self-check over every distinct RA-reachable state (DESIGN.md §11).
    ``check_shards`` re-runs the RA exploration hash-partitioned across
    three shards and requires exact parity with the single-process
    search (DESIGN.md §15).  ``check_faults`` injects a deterministic
    mid-run interrupt into a re-exploration, resumes it from its
    checkpoint and requires exact parity with the clean search
    (DESIGN.md §16).
    """
    models = models if models is not None else ORACLE_MODELS
    report = OracleReport(case)
    # +1 slack: the hint is an exact upper bound, so reaching it is
    # legitimate and only *exceeding* it marks a runaway model
    max_events = case.events_hint + 1

    ra_states = []
    for name in REFINEMENT_CHAIN:
        try:
            if name == "ra":
                # one exploration yields both the outcome set and every
                # distinct reachable state for the soundness oracle
                ra_states, result = reachable_states(
                    case.program, case.init, models[name](),
                    max_events=max_events, max_configs=max_configs,
                )
            else:
                result = explore(
                    case.program, case.init, models[name](),
                    max_events=max_events, max_configs=max_configs,
                )
        except Exception as exc:  # noqa: BLE001 — a crash IS a finding
            report.divergence = "crash"
            report.detail = f"{name} exploration raised {type(exc).__name__}: {exc}"
            return report
        report.configs += result.configs
        report.transitions += result.transitions
        report.terminal += len(result.terminal)
        report.stats.merge(result.stats)
        if name == "ra":
            ra_full = result
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

    # 2b. derived-order parity: compact vs definitional (DESIGN.md §11)
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

    # 4. POR parity: the reduced search must be outcome-identical.
    if reduction != "none":
        label = f"reduction={reduction}"
        try:
            reduced = explore(
                case.program, case.init, models["ra"](),
                max_events=max_events, max_configs=max_configs,
                reduction=reduction,
            )
        except Exception as exc:  # noqa: BLE001 — a crash IS a finding
            report.divergence = "crash"
            report.detail = (
                f"ra exploration under {label} raised "
                f"{type(exc).__name__}: {exc}"
            )
            return report
        report.configs += reduced.configs
        report.transitions += reduced.transitions
        report.stats.merge(reduced.stats)
        if reduced.capped:
            # The reduced search hit the safety cap: its outcome set
            # is incomplete, so neither green nor a divergence
            # verdict would be honest.
            report.inconclusive = True
            report.detail = (
                f"{label}: exploration hit the config cap; no verdict"
            )
            return report
        reduced_outcomes = _outcome_set(reduced.terminal)
        if reduced_outcomes != report.outcomes["ra"]:
            missing = report.outcomes["ra"] - reduced_outcomes
            extra = reduced_outcomes - report.outcomes["ra"]
            witness = _format_outcome(sorted(missing or extra)[0])
            report.divergence = "por-parity"
            report.detail = (
                f"{label}: outcome {witness} "
                f"{'lost' if missing else 'invented'} by the reduced "
                f"search ({len(missing)} missing, {len(extra)} extra)"
            )
            return report
        if reduced.truncated != ra_full.truncated:
            report.divergence = "por-parity"
            report.detail = (
                f"{label}: truncation flag diverged "
                f"({reduced.truncated} vs {ra_full.truncated})"
            )
            return report
        if reduced.configs > ra_full.configs:
            report.divergence = "por-parity"
            report.detail = (
                f"{label}: visited {reduced.configs} distinct "
                f"configurations, more than the full search's "
                f"{ra_full.configs}"
            )
            return report

    # 5. shard parity: the hash-partitioned search must be *exactly*
    # identical to the single-process one — same outcome set, same
    # truncation flag, and (unlike reductions, whose counts may only
    # shrink) the same visited-configuration count, since sharding
    # partitions the very same search rather than pruning it
    # (DESIGN.md §15).  Always the in-process superstep schedule —
    # deterministic and fork-free whether the oracle runs in the parent
    # (jobs=1) or inside a daemonic pool worker; the process-mode test
    # matrix covers the wire format separately.
    if check_shards:
        label = "shards=3"
        try:
            sharded = explore(
                case.program, case.init, models["ra"](),
                max_events=max_events, max_configs=max_configs,
                shards=3, shard_processes=False,
            )
        except Exception as exc:  # noqa: BLE001 — a crash IS a finding
            report.divergence = "crash"
            report.detail = (
                f"ra exploration under {label} raised "
                f"{type(exc).__name__}: {exc}"
            )
            return report
        report.configs += sharded.configs
        report.transitions += sharded.transitions
        report.stats.merge(sharded.stats)
        if sharded.capped:
            # Per-shard caps fire at ceil(max_configs/shards), so a
            # capped sharded run explored a *different* prefix than the
            # full one: no verdict is possible, never green.
            report.inconclusive = True
            report.detail = (
                f"{label}: exploration hit the config cap; no verdict"
            )
            return report
        sharded_outcomes = _outcome_set(sharded.terminal)
        if sharded_outcomes != report.outcomes["ra"]:
            missing = report.outcomes["ra"] - sharded_outcomes
            extra = sharded_outcomes - report.outcomes["ra"]
            witness = _format_outcome(sorted(missing or extra)[0])
            report.divergence = "shard-parity"
            report.detail = (
                f"{label}: outcome {witness} "
                f"{'lost' if missing else 'invented'} by the sharded "
                f"search ({len(missing)} missing, {len(extra)} extra)"
            )
            return report
        if sharded.truncated != ra_full.truncated:
            report.divergence = "shard-parity"
            report.detail = (
                f"{label}: truncation flag diverged "
                f"({sharded.truncated} vs {ra_full.truncated})"
            )
            return report
        if sharded.configs != ra_full.configs:
            report.divergence = "shard-parity"
            report.detail = (
                f"{label}: visited {sharded.configs} distinct "
                f"configurations vs the full search's {ra_full.configs} "
                "(sharding must partition, not prune)"
            )
            return report

    # 6. fault parity: injected faults must not change what the search
    # computes (DESIGN.md §16).  The RA exploration is interrupted
    # after half its configurations and resumed from the checkpoint the
    # interrupt left behind; the stitched run must be exactly outcome-
    # and count-identical to the clean one.  It runs in-process and
    # fork-free, so the oracle is daemonic-pool safe.
    if check_faults:
        import os
        import shutil
        import tempfile

        from repro.faults import (
            FaultInterrupt,
            FaultPlan,
            clear_plan,
            set_plan,
        )

        def _fault_diff(label: str, rerun) -> Optional[str]:
            rerun_outcomes = _outcome_set(rerun.terminal)
            if rerun_outcomes != report.outcomes["ra"]:
                missing = report.outcomes["ra"] - rerun_outcomes
                extra = rerun_outcomes - report.outcomes["ra"]
                witness = _format_outcome(sorted(missing or extra)[0])
                return (
                    f"{label}: outcome {witness} "
                    f"{'lost' if missing else 'invented'} after recovery "
                    f"({len(missing)} missing, {len(extra)} extra)"
                )
            if rerun.truncated != ra_full.truncated:
                return (
                    f"{label}: truncation flag diverged "
                    f"({rerun.truncated} vs {ra_full.truncated})"
                )
            if rerun.configs != ra_full.configs:
                return (
                    f"{label}: visited {rerun.configs} distinct "
                    f"configurations vs the clean search's "
                    f"{ra_full.configs} (recovery must lose nothing)"
                )
            return None

        workdir = tempfile.mkdtemp(prefix="repro-fault-oracle-")
        try:
            # interrupt mid-run, resume from the checkpoint
            label = "fault-parity(interrupt+resume)"
            half = max(1, ra_full.configs // 2)
            ckpt = os.path.join(workdir, "case.ckpt")
            try:
                set_plan(FaultPlan(f"interrupt:configs={half}"))
                try:
                    resumed = explore(
                        case.program, case.init, models["ra"](),
                        max_events=max_events, max_configs=max_configs,
                        checkpoint=ckpt,
                        checkpoint_every=max(1, half // 2),
                    )
                except FaultInterrupt as exc:
                    clear_plan()
                    if exc.checkpoint is not None:
                        resumed = explore(
                            case.program, case.init, models["ra"](),
                            max_events=max_events, max_configs=max_configs,
                            resume=exc.checkpoint,
                        )
                    else:
                        # interrupted before the first snapshot landed:
                        # recovery degenerates to a fresh run
                        resumed = explore(
                            case.program, case.init, models["ra"](),
                            max_events=max_events, max_configs=max_configs,
                        )
            except Exception as exc:  # noqa: BLE001 — a crash IS a finding
                report.divergence = "crash"
                report.detail = f"{label} raised {type(exc).__name__}: {exc}"
                return report
            finally:
                clear_plan()
            report.configs += resumed.configs
            report.transitions += resumed.transitions
            report.stats.merge(resumed.stats)
            if resumed.capped:
                report.inconclusive = True
                report.detail = (
                    f"{label}: exploration hit the config cap; no verdict"
                )
                return report
            detail = _fault_diff(label, resumed)
            if detail is not None:
                report.divergence = "fault-parity"
                report.detail = detail
                return report
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    return report


__all__ = [
    "AXIOMATIC_MAX_EVENTS",
    "AXIOMATIC_MAX_VARS",
    "DEFAULT_MAX_CONFIGS",
    "ORACLE_MODELS",
    "OracleReport",
    "REFINEMENT_CHAIN",
    "check_program",
]
