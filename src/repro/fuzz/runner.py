"""The fuzz campaign driver behind ``python -m repro fuzz``.

Campaigns fan out over the engine's existing
:class:`~repro.engine.parallel.ParallelRunner`: a :class:`FuzzJob` is a
picklable *recipe* — campaign seed, index range, profile name — not a
program; each worker regenerates its cases deterministically from the
seed (the same ship-names-not-objects discipline as the litmus suite
jobs).  Divergences found in a worker are shrunk in-worker and shipped
back as JSON in the result's ``detail`` field, so the parent
process never needs to unpickle an AST.

The axiomatic oracle's verdict is a property of a clamped footprint
*space*, not of a program, so it is a job of its own: one
:class:`FootprintJob` per space, judged once per batch.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

from repro.engine.plan import SearchPlan
from repro.engine.stats import EngineStats
from repro.fuzz.generator import PROFILES, GeneratedCase, generate_case
from repro.fuzz import oracles
from repro.fuzz.oracles import (
    AXIOMATIC_MAX_EVENTS,
    AXIOMATIC_MAX_VARS,
    DEFAULT_MAX_CONFIGS,
    OracleReport,
    check_program,
    parity_legs,
)
from repro.fuzz.shrink import shrink_case


#: marks the :class:`FuzzJob` fields that are :func:`check_program`'s
#: keywords
_ORACLE = {"oracle": True}


@dataclass(frozen=True)
class FuzzJob:
    """One worker-sized slice of a campaign (picklable by construction).

    Its oracle settings are the one declaration of a campaign's oracle
    options: :func:`fuzz_jobs` and :func:`run_campaign` take them as
    keywords and hand them through.  Building a job validates them, so
    a bad setting raises ``ValueError`` before any program runs.
    """

    kind: str = "fuzz"
    seed: int = 0
    start: int = 0
    count: int = 1
    profile: str = "default"
    shrink: bool = True
    max_configs: Optional[int] = field(
        default=DEFAULT_MAX_CONFIGS, metadata=_ORACLE
    )
    #: reduction the POR-parity oracle checks ("none" disables it)
    reduction: str = field(default="optimal", metadata=_ORACLE)
    #: cross-check compact vs definitional derived orders per state
    #: (the "orders" oracle, DESIGN.md §11)
    check_orders: bool = field(default=False, metadata=_ORACLE)
    #: re-explore under shards=3 and require exact parity with the
    #: single-process search (the "shard-parity" oracle, DESIGN.md §15)
    check_shards: bool = field(default=False, metadata=_ORACLE)
    #: interrupt the search mid-run, resume from the checkpoint, and
    #: require byte-identical results (the "fault-parity" oracle,
    #: DESIGN.md §16)
    check_faults: bool = field(default=False, metadata=_ORACLE)

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r}; choose from {sorted(PROFILES)}"
            )
        parity_legs(
            SearchPlan(max_configs=self.max_configs), self.reduction,
            self.check_shards, self.check_faults,
        )

    @property
    def oracle(self) -> dict:
        """The oracle settings, as :func:`check_program`'s keywords."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.metadata.get("oracle")
        }

    @property
    def label(self) -> str:
        last = self.start + self.count - 1
        return f"fuzz[{self.seed}] #{self.start}..{last} ({self.profile})"


@dataclass(frozen=True)
class FootprintJob:
    """The axiomatic oracle on one clamped footprint space (DESIGN.md §6,
    oracle 3): the E1 comparison over every candidate with
    ``n_events`` program events on ``n_variables`` variables."""

    kind: str = "footprint"
    n_events: int = 1
    n_variables: int = 1

    @property
    def label(self) -> str:
        return f"footprint n={self.n_events} vars={self.n_variables}"


@dataclass
class DivergenceRecord:
    """One divergence, as found and as shrunk — JSON-serialisable."""

    name: str
    kind: str
    detail: str
    seed: int
    index: int
    profile: str
    original: str  # litmus text as generated
    shrunk: str  # litmus text after delta debugging
    shrunk_threads: int
    shrink_attempts: int
    history: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "DivergenceRecord":
        return cls(**data)


def _check(job: FuzzJob, case: GeneratedCase) -> OracleReport:
    return check_program(case, **job.oracle)


def _diverges_like(job: FuzzJob, kind: str) -> Callable[[GeneratedCase], bool]:
    """The shrinker predicate: candidate still fails the *same* oracle."""

    def failing(candidate: GeneratedCase) -> bool:
        report = _check(job, candidate)
        return report.divergence == kind

    return failing


def run_fuzz_job(job: FuzzJob):
    """Worker entry point: generate, check and shrink one index range.

    Returns the engine's :class:`~repro.engine.parallel.SuiteJobResult`
    with divergence records serialised into ``detail``.
    """
    from repro.engine.parallel import SuiteJobResult
    from repro.obs.trace import tracer

    tr = tracer()
    records: List[DivergenceRecord] = []
    inconclusive = 0
    terminal = 0
    stats = EngineStats()
    for index in range(job.start, job.start + job.count):
        case = generate_case(job.seed, index, PROFILES[job.profile])
        report = _check(job, case)
        terminal += report.terminal
        stats.merge(report.stats)
        if tr is not None:
            tr.emit(
                "case", seed=job.seed, index=index,
                kind=(
                    "inconclusive" if report.inconclusive
                    else (report.divergence or "ok")
                ),
            )
        if report.inconclusive:
            inconclusive += 1
            continue
        if report.ok:
            continue
        shrunk, attempts = case, 0
        if job.shrink:
            shrunk, attempts = shrink_case(
                case, _diverges_like(job, report.divergence)
            )
        records.append(
            DivergenceRecord(
                name=shrunk.name,
                kind=report.divergence,
                detail=report.detail,
                seed=job.seed,
                index=index,
                profile=job.profile,
                original=case.to_litmus(),
                shrunk=shrunk.to_litmus(),
                shrunk_threads=shrunk.n_threads,
                shrink_attempts=attempts,
                history=list(shrunk.history),
            )
        )
    payload = {
        "inconclusive": inconclusive,
        "divergences": [r.to_json() for r in records],
    }
    return SuiteJobResult(
        job=job,
        observed=bool(records),
        expected=False,
        pinned=True,
        terminal=terminal,
        truncated=bool(inconclusive),
        wall_time=0.0,  # overwritten by run_suite_job with whole-job time
        stats=stats,
        detail=json.dumps(payload),
    )


def run_footprint_job(job: FootprintJob):
    """Worker entry point: judge one footprint space.

    The result is divergent when the axiomatisations disagree; its
    ``detail`` is the failure description.
    """
    from repro.engine.parallel import SuiteJobResult

    failure = oracles._footprint_equivalence(job.n_events, job.n_variables)
    return SuiteJobResult(
        job=job,
        observed=bool(failure),
        expected=False,
        pinned=True,
        terminal=0,
        truncated=False,
        wall_time=0.0,  # overwritten by run_suite_job with whole-job time
        stats=EngineStats(),
        detail=failure,
    )


@dataclass
class CampaignReport:
    """Everything one fuzz campaign learned."""

    seed: int
    iters: int
    profile: str
    divergences: List[DivergenceRecord] = field(default_factory=list)
    inconclusive: int = 0
    wall_time: float = 0.0
    #: every job's stats record, merged (:meth:`EngineStats.merge`),
    #: with the campaign's configuration and transition counts
    stats: EngineStats = field(default_factory=EngineStats)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        verdict = (
            "no divergences"
            if self.ok
            else f"{len(self.divergences)} DIVERGENCE(S)"
        )
        stats = self.stats
        line = (
            f"fuzz seed={self.seed} iters={self.iters} "
            f"profile={self.profile}: {verdict}, "
            f"{self.inconclusive} inconclusive; {stats.configs} configs, "
            f"{stats.transitions} transitions, "
            f"key-cache {100.0 * stats.key_rate:.0f}%, "
            f"worker time {self.wall_time:.2f}s"
        )
        candidates = stats.expanded + stats.pruned
        if candidates:
            line += (
                f"; por-parity pruned {stats.pruned}/{candidates} "
                f"({100.0 * stats.reduction_ratio:.0f}%), "
                f"{stats.races} races"
            )
        return line


def fuzz_jobs(
    seed: int,
    iters: int,
    profile: str = "default",
    jobs: int = 1,
    axiomatic: bool = True,
    **settings,
) -> List[Union[FootprintJob, FuzzJob]]:
    """A campaign's batch: the footprint spaces, then the programs.

    With ``axiomatic`` the batch opens with one :class:`FootprintJob`
    per space the axiomatic oracle can reach (1 ≤ n ≤
    ``AXIOMATIC_MAX_EVENTS`` events, 1 ≤ v ≤ ``AXIOMATIC_MAX_VARS``
    variables), largest first so the longest jobs start first.  The
    ``iters`` cases follow in worker-sized :class:`FuzzJob` slices:
    several per worker keep the pool busy when case costs vary, and
    each stays coarse enough to amortise per-job overhead (registry
    imports).  ``settings`` are :class:`FuzzJob` fields (``shrink`` and
    the oracle settings), validated before the batch is built.
    ``iters <= 0`` is an empty batch.
    """
    template = FuzzJob(seed=seed, profile=profile, **settings)
    if iters <= 0:
        return []
    work: List[Union[FootprintJob, FuzzJob]] = []
    if axiomatic:
        work += [
            FootprintJob(n_events=n, n_variables=v)
            for n in range(AXIOMATIC_MAX_EVENTS, 0, -1)
            for v in range(AXIOMATIC_MAX_VARS, 0, -1)
        ]
    chunk = max(1, math.ceil(iters / max(1, jobs * 4)))
    return work + [
        dataclasses.replace(
            template, start=start, count=min(chunk, iters - start)
        )
        for start in range(0, iters, chunk)
    ]


def run_campaign(
    seed: int,
    iters: int,
    profile: str = "default",
    jobs: int = 1,
    axiomatic: bool = True,
    progress: Optional[Callable] = None,
    **settings,
) -> CampaignReport:
    """Run a whole campaign through the parallel runner.

    ``settings`` are :class:`FuzzJob` fields, as for :func:`fuzz_jobs`.
    A space the axiomatisations disagree on becomes one ``"axiomatic"``
    record, and a worker that raised one ``"worker-crash"`` record;
    neither carries a program.  ``progress`` is forwarded to
    :meth:`ParallelRunner.run`: called in the parent with each job's
    result as it completes (the CLI's ``--progress`` heartbeat).
    """
    from repro.engine.parallel import ParallelRunner

    work = fuzz_jobs(
        seed, iters, profile=profile, jobs=jobs, axiomatic=axiomatic,
        **settings,
    )
    results = ParallelRunner(jobs=jobs).run(work, progress=progress)
    report = CampaignReport(seed=seed, iters=iters, profile=profile)

    def job_record(job, kind: str, detail: str) -> DivergenceRecord:
        return DivergenceRecord(
            name=job.label,
            kind=kind,
            detail=detail,
            seed=seed,
            index=getattr(job, "start", -1),
            profile=profile,
            original="",
            shrunk="",
            shrunk_threads=0,
            shrink_attempts=0,
        )

    for result in results:
        report.wall_time += result.wall_time
        if result.failed:
            # The worker raised instead of reporting (its ``detail`` is
            # a traceback, not a JSON payload): surface the crash as a
            # campaign divergence so the run can never read as green.
            report.divergences.append(
                job_record(result.job, "worker-crash", result.detail)
            )
            continue
        if result.job.kind == "footprint":
            if result.observed:
                report.divergences.append(
                    job_record(result.job, "axiomatic", result.detail)
                )
            continue
        payload = json.loads(result.detail)
        report.inconclusive += payload["inconclusive"]
        report.divergences.extend(
            DivergenceRecord.from_json(data) for data in payload["divergences"]
        )
        report.stats.merge(result.stats)
    report.divergences.sort(key=lambda r: r.index)
    return report


__all__ = [
    "CampaignReport",
    "DivergenceRecord",
    "FootprintJob",
    "FuzzJob",
    "fuzz_jobs",
    "run_campaign",
    "run_footprint_job",
    "run_fuzz_job",
]
