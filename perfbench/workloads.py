"""The benchmark's workloads: how each builds its inputs, the call under
test, and the correctness check every operation must pass.

Importing this module imports nothing from the program, so the set-up
timing of :mod:`perfbench.op` includes the program's own imports.
"""

from __future__ import annotations

import importlib
import json
import os
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Seed of the campaign's pinned slice of ``--profile wide`` fuzz programs.
#: Wide programs vary too much in cost for a per-run seed to choose them
#: (a 120-program slice's wall time spreads by about 20% across seeds),
#: so the workload seed chooses a ``small`` slice instead.
CORPUS_SEED = 0
#: Size of the pinned wide slice.  Pool.map hands the whole slice to one
#: worker, so it sets the batch's tail; at 16 programs one operation
#: takes 5-7 s and a 20 s run holds three or four operations (at 120 it
#: took 18-24 s, and a run held one).
WIDE_PROGRAMS = 16

#: Pinned results.  The ring outcome sets are those of the unreduced
#: search at the same bound (``ring4-optimal``: ``ring4-bfs``'s) and of
#: the single-process search (``ring4-durable``); ``unreduced_configs``
#: is the unreduced configuration count at the workload's bound.
PINS: Dict[str, dict] = {
    "ring4-bfs": {
        "configs": 72194, "transitions": 189815,
        "outcomes": [[["token", 1]]], "unreduced_configs": 72194,
    },
    "ring4-optimal": {
        "configs": 46974, "transitions": 96147,
        "outcomes": [[["token", 1]]], "unreduced_configs": 72194,
    },
    "ring4-durable": {
        "configs": 8384, "transitions": 22833,
        "outcomes": [[["token", 1]]], "unreduced_configs": 8384,
    },
    "campaign": {"obligations": 19654},
}

#: EngineStats fields a summary carries for the per-layer metrics.
STAT_FIELDS = (
    "key_hits", "key_misses", "time_orders", "expanded", "pruned", "races",
    "revisits", "peak_frontier", "shard_sent", "shard_rounds", "checkpoints",
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: why the workload is in the benchmark (BENCHMARK.json, README)
    why: str
    #: ``(seed, workdir) -> inputs``: imports, program construction,
    #: lowering and model initialisation.  Workers are spawned inside
    #: the call under test, so their start-up is part of the verdict.
    setup: Callable[[int, str], object]
    #: ``inputs -> summary``: the call under test, as a JSON-able dict
    verdict: Callable[[object], dict]
    #: ``summary -> failures``: one message per failed check
    check: Callable[[dict], List[str]]


def run_checked(workload: Workload, inputs) -> Tuple[Optional[dict], List[str], float]:
    """One operation: the call under test and its check, timed together.

    A crash is a failed operation, never an exception: the summary is
    then ``None`` and the failure carries the traceback.
    """
    t0 = perf_counter()
    try:
        summary = workload.verdict(inputs)
        failures = workload.check(summary)
    except Exception:  # the boundary every operation must report through
        summary, failures = None, [traceback.format_exc()]
    return summary, failures, perf_counter() - t0


# ----------------------------------------------------------------------
# Token ring workloads
# ----------------------------------------------------------------------


@dataclass
class RingInputs:
    program: object
    model: object
    check: Callable
    kwargs: Dict[str, object]


def _ring_setup(explore_kwargs: Dict[str, object]) -> Callable[[int, str], RingInputs]:
    def setup(seed: int, workdir: str) -> RingInputs:
        from repro.casestudies.token_ring import (
            TOKEN_INIT,
            token_ring_program,
            token_ring_violations,
        )
        from repro.interp import compiled
        from repro.interp.ra_model import RAMemoryModel

        program = compiled.maybe_lower(token_ring_program(n_threads=4))
        model = RAMemoryModel()
        model.initial(TOKEN_INIT)
        kwargs = dict(explore_kwargs)
        if "checkpoint" in kwargs:
            kwargs["checkpoint"] = os.path.join(workdir, "ring4-durable.ckpt")
        return RingInputs(program, model, token_ring_violations, kwargs)

    return setup


def outcome_set(terminal) -> List[list]:
    """Distinct final-value maps of terminal configurations, sorted."""
    from repro.litmus.registry import final_values

    outcomes = {tuple(sorted(final_values(c).items())) for c in terminal}
    return [[list(pair) for pair in outcome] for outcome in sorted(outcomes)]


def _ring_verdict(inputs: RingInputs) -> dict:
    from repro.casestudies.token_ring import TOKEN_INIT

    # the module, not the function the package re-exports under its name;
    # looked up per call so the traced run's wrapper is seen
    explore_module = importlib.import_module("repro.interp.explore")
    result = explore_module.explore(
        inputs.program, TOKEN_INIT, inputs.model,
        check_config=inputs.check, **inputs.kwargs,
    )
    summary = {
        "configs": result.configs,
        "transitions": result.transitions,
        "violations": len(result.violations),
        "truncated": result.truncated,
        "outcomes": outcome_set(result.terminal),
        "stats": {name: getattr(result.stats, name) for name in STAT_FIELDS},
    }
    summary["identity"] = {
        key: summary[key]
        for key in ("configs", "transitions", "violations", "truncated", "outcomes")
    }
    path = inputs.kwargs.get("checkpoint")
    if path is not None:
        summary["checkpoint_error"] = _checkpoint_error(inputs, path)
    return summary


def _checkpoint_error(inputs: RingInputs, path: str) -> Optional[str]:
    """Why the snapshot does not belong to this run, or None."""
    from repro.casestudies.token_ring import TOKEN_INIT
    from repro.engine.checkpoint import CheckpointError, read_checkpoint, run_fingerprint

    kwargs = inputs.kwargs
    fingerprint = run_fingerprint(
        inputs.program, TOKEN_INIT, inputs.model,
        max_events=kwargs["max_events"], max_configs=None, strategy="bfs",
        reduction="none", equivalence="shasha-snir", canonicalize=True,
        shards=kwargs["shards"],
    )
    try:
        read_checkpoint(path, expect=fingerprint)
    except CheckpointError as exc:
        return str(exc)
    return None


def ring_check(pins: dict) -> Callable[[dict], List[str]]:
    def check(summary: dict) -> List[str]:
        failures = [
            f"{key} {summary[key]} != pinned {pins[key]}"
            for key in ("configs", "transitions", "outcomes")
            if summary[key] != pins[key]
        ]
        if summary["violations"]:
            failures.append(f"{summary['violations']} mutual-exclusion violations")
        if "checkpoint_error" in summary:
            if summary["stats"]["checkpoints"] < 1:
                failures.append("no checkpoint snapshot written")
            if summary["checkpoint_error"] is not None:
                failures.append(summary["checkpoint_error"])
        return failures

    return check


# ----------------------------------------------------------------------
# Campaign workload
# ----------------------------------------------------------------------


@dataclass
class CampaignInputs:
    runner: object
    jobs: list


def campaign_jobs(seed: int) -> list:
    """The batch: litmus suite, case studies, proof obligations, the
    pinned wide fuzz slice and the seeded small fuzz slice."""
    from repro.engine.parallel import case_study_jobs, litmus_jobs, verify_jobs
    from repro.fuzz.runner import fuzz_jobs

    return (
        litmus_jobs(models=("sc", "ra", "sra"), extra=True)
        + case_study_jobs()
        + verify_jobs()
        + fuzz_jobs(CORPUS_SEED, WIDE_PROGRAMS, profile="wide", jobs=2, shrink=False)
        + fuzz_jobs(seed, 40, profile="small", jobs=2, shrink=False)
    )


def _campaign_setup(seed: int, workdir: str) -> CampaignInputs:
    from repro.engine.parallel import ParallelRunner

    return CampaignInputs(ParallelRunner(jobs=2), campaign_jobs(seed))


def _campaign_verdict(inputs: CampaignInputs) -> dict:
    results = inputs.runner.run(inputs.jobs)
    fuzz = [
        json.loads(r.detail) for r in results if r.job.kind == "fuzz" and not r.failed
    ]
    stats = {name: sum(getattr(r, name, 0) for r in results) for name in STAT_FIELDS}
    stats["peak_frontier"] = max((r.peak_frontier for r in results), default=0)
    summary = {
        "jobs": len(inputs.jobs),
        "results": len(results),
        "mismatches": [r.label for r in results if not r.verdict_matches],
        "crashes": sum(1 for r in results if r.failed),
        "divergences": sum(len(f["divergences"]) for f in fuzz),
        "inconclusive": sum(f["inconclusive"] for f in fuzz),
        "programs": sum(job.count for job in inputs.jobs if job.kind == "fuzz"),
        "obligations": sum(r.obligations for r in results),
        "configs": sum(r.configs for r in results),
        "transitions": sum(r.transitions for r in results),
        "stats": stats,
    }
    summary["identity"] = {
        "verdicts": [[r.label, r.verdict, r.configs, r.transitions] for r in results],
        "obligations": summary["obligations"],
    }
    return summary


def campaign_check(pins: dict) -> Callable[[dict], List[str]]:
    def check(summary: dict) -> List[str]:
        failures = []
        if summary["results"] != summary["jobs"]:
            failures.append(f"{summary['results']} results for {summary['jobs']} jobs")
        if summary["mismatches"]:
            failures.append(f"verdict mismatches: {summary['mismatches']}")
        if summary["crashes"]:
            failures.append(f"{summary['crashes']} worker crashes")
        if summary["divergences"]:
            failures.append(f"{summary['divergences']} fuzz divergences")
        if summary["obligations"] != pins["obligations"]:
            failures.append(
                f"obligations {summary['obligations']} != pinned {pins['obligations']}"
            )
        return failures

    return check


def _ring(name: str, why: str, **explore_kwargs) -> Workload:
    return Workload(
        name, why, _ring_setup(explore_kwargs), _ring_verdict, ring_check(PINS[name])
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        _ring(
            "ring4-bfs",
            "the unreduced hot path: expand, model and keys dominate; POR, "
            "shard, checkpoint and pool layers do no work",
            max_events=12,
        ),
        _ring(
            "ring4-optimal",
            "ring4-bfs's program and bound under optimal DPOR: POR bookkeeping "
            "dominates, so a POR change shows here and not on ring4-bfs",
            max_events=12, reduction="optimal",
        ),
        Workload(
            "campaign",
            "one two-worker batch of many small programs: set-up, lowering, "
            "axiomatic oracles and pool dispatch dominate",
            _campaign_setup, _campaign_verdict, campaign_check(PINS["campaign"]),
        ),
        _ring(
            "ring4-durable",
            "two shard processes plus default-cadence checkpoints: routing, "
            "re-keying and snapshot writes, which no other workload runs",
            # checkpoint=True stands for a file in the run's work directory
            max_events=8, shards=2, shard_processes=True, checkpoint=True,
        ),
    )
}
