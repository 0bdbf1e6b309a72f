"""Fan the litmus suite, case studies and proof sweeps across workers.

Litmus tests, case-study checks and proof-outline discharges are
embarrassingly parallel — one exploration per (test, model) pair, no
shared state — but the objects involved (programs, outcome lambdas,
outlines) do not pickle.  The runner therefore ships *names*: a
:class:`SuiteJob` carries only strings and a
:class:`~repro.engine.plan.SearchPlan`, each worker
re-resolves the test/case study/proof entry from the registries it
imported itself, and ships back a :class:`SuiteJobResult`: the verdict
and the run's whole :class:`~repro.engine.stats.EngineStats`, which
holds its configuration and transition counts (verify jobs add
obligation counts).  Verdicts are byte-identical to a sequential run
because the sequential path (``jobs=1``) executes the very same
:func:`run_suite_job` in-process (DESIGN.md §5).

Heavy imports (litmus registries, case studies) happen lazily inside
the worker so that importing :mod:`repro.engine` never drags the whole
library in — and so no import cycle forms with
:mod:`repro.litmus.registry`, which itself imports the engine's
``explore``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.plan import SearchPlan
from repro.engine.stats import EngineStats

#: Case-study checks runnable as suite jobs: name -> (expected ok?).
#: Bounds are modest so a suite run stays interactive; the dedicated
#: benchmarks push the bounds instead.
CASE_STUDIES = {
    "peterson": True,
    "peterson-relaxed-turn": False,
    "dekker-entry": False,
    "token-ring": True,
    "spinlock-tas": True,
    "spinlock-broken": False,
    "ticket-lock": True,
    "seqlock": True,
    "seqlock-relaxed-data": False,
    "barrier": True,
}


class SuiteInterrupted(KeyboardInterrupt):
    """Ctrl-C (or SIGTERM) landed mid-suite.

    Carries the results completed before the interrupt so the CLI can
    print a partial footer instead of a bare traceback.  Raised only
    after the worker pool has been terminated and joined — no orphaned
    workers, no queue feeder left wedging the terminal.
    """

    def __init__(self, results: List["SuiteJobResult"]) -> None:
        super().__init__(f"interrupted after {len(results)} job(s)")
        self.results = results


@dataclass(frozen=True)
class SuiteJob:
    """One unit of suite work, picklable by construction (names only)."""

    kind: str  # "litmus" | "case-study" | "verify" (and fuzz/runner.py's)
    name: str
    model: str = "ra"  # litmus/verify; case studies fix their own model
    #: how the worker searches.  Every test, case study and proof entry
    #: pins its own event bound, which replaces the plan's.  Verdicts
    #: are strategy-, reduction- and shard-independent by design.
    #: Suite workers are daemonic pool processes, so a sharded plan runs
    #: the sharded search's in-process mode (DESIGN.md §15).  Verify jobs
    #: reject a reducing plan: obligation discharge quantifies over every
    #: reachable transition (DESIGN.md §10).
    plan: SearchPlan = SearchPlan()

    @property
    def label(self) -> str:
        if self.kind == "litmus":
            return f"{self.name} [{self.model}]"
        if self.kind == "verify":
            return f"{self.name} [{self.model}] proof"
        return f"{self.name} (case study)"


@dataclass(frozen=True)
class SuiteJobResult:
    """What one job reported back: its verdict, counts and stats record."""

    job: SuiteJob
    #: litmus: outcome reachable?  case study: property violated?
    observed: bool
    #: the registry's expectation under the job's model
    expected: bool
    #: whether that expectation is pinned (litmus under SRA is not —
    #: the paper gives no table for the comparator model)
    pinned: bool
    terminal: int
    truncated: bool
    wall_time: float
    #: what the job's explorations did and cost, merged
    #: (:meth:`EngineStats.merge`)
    stats: EngineStats
    #: kind-specific payload (fuzz jobs ship their divergence records
    #: here as JSON, footprint jobs their failure description; litmus
    #: and case-study jobs leave it empty)
    detail: str = ""
    #: proof-obligation counters (verify jobs only)
    obligations: int = 0
    failed_obligations: int = 0
    #: the worker raised instead of reporting: ``detail`` carries the
    #: traceback and the job counts as a mismatch, never as a pass
    failed: bool = False
    #: pid of the worker that ran the job (observability only — never
    #: aggregated; lets trace/job records be joined to engine records)
    worker_pid: int = 0

    def __getattr__(self, name: str):
        # Forwards reads of the engine counters (``r.configs`` is
        # ``r.stats.configs``) for readers outside the package that
        # predate the one stats record, such as perfbench/workloads.py.
        # Only reached when ordinary lookup fails.  Dunders and ``stats``
        # itself must fail fast: unpickling looks up ``__setstate__``
        # before ``stats`` is set, and forwarding that would recurse.
        if name == "stats" or name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.stats, name)

    @property
    def verdict_matches(self) -> bool:
        if self.failed:
            return False
        return (not self.pinned) or self.observed == self.expected

    def row(self) -> str:
        mark = "" if self.verdict_matches else "  ** MISMATCH **"
        bound = " (bounded)" if self.truncated else ""
        return (
            f"{self.label:<28} {self.verdict:<10} "
            f"configs={self.stats.configs:>6} "
            f"time={self.wall_time * 1e3:7.1f}ms{bound}{mark}"
        )

    @property
    def label(self) -> str:
        return self.job.label

    @property
    def verdict(self) -> str:
        if self.failed:
            return "ERROR"
        if self.job.kind == "litmus":
            return "allowed" if self.observed else "forbidden"
        if self.job.kind in ("fuzz", "footprint"):
            return "diverged" if self.observed else "ok"
        if self.job.kind == "verify":
            return "REFUTED" if self.observed else "proved"
        return "violated" if self.observed else "ok"


def litmus_jobs(
    models: Sequence[str] = ("ra", "sc"),
    extra: bool = False,
    plan: SearchPlan = SearchPlan(),
) -> List[SuiteJob]:
    """One job per (litmus test, model) over the built-in suite."""
    from repro.litmus.extra import EXTRA_TESTS
    from repro.litmus.suite import ALL_TESTS

    tests = list(ALL_TESTS) + (list(EXTRA_TESTS) if extra else [])
    return [
        SuiteJob(kind="litmus", name=test.name, model=model, plan=plan)
        for test in tests
        for model in models
    ]


def case_study_jobs(plan: SearchPlan = SearchPlan()) -> List[SuiteJob]:
    """The case-study checks as suite jobs (RA model, modest bounds)."""
    return [
        SuiteJob(kind="case-study", name=name, plan=plan)
        for name in CASE_STUDIES
    ]


def verify_jobs(
    names: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
    plan: SearchPlan = SearchPlan(),
) -> List[SuiteJob]:
    """One job per (proof case study, model) pair over the registry.

    ``names`` restricts to a subset of entries, ``models`` intersects
    each entry's pinned models (an entry checked under no requested
    model simply contributes no job).
    """
    from repro.verify.registry import PROOFS

    entries = (
        PROOFS.entries() if names is None else [PROOFS.get(n) for n in names]
    )
    return [
        SuiteJob(kind="verify", name=entry.name, model=model, plan=plan)
        for entry in entries
        for model in entry.models
        if models is None or model in models
    ]


def _litmus_by_name(name: str):
    from repro.litmus.extra import EXTRA_TESTS
    from repro.litmus.suite import ALL_TESTS

    for test in list(ALL_TESTS) + list(EXTRA_TESTS):
        if test.name == name:
            return test
    raise KeyError(f"unknown litmus test {name!r}")


def _run_litmus_job(job: SuiteJob) -> SuiteJobResult:
    from repro.interp.memory_model import model_by_name
    from repro.litmus.registry import run_litmus

    model = model_by_name(job.model)
    test = _litmus_by_name(job.name)
    outcome = run_litmus(test, model, job.plan)
    result = outcome.result
    return SuiteJobResult(
        job=job,
        observed=outcome.reachable,
        expected=outcome.expected,
        pinned=model.name != "SRA",
        terminal=len(result.terminal),
        truncated=result.truncated,
        wall_time=result.stats.time_total,
        stats=result.stats,
    )


def _case_study_setup(name: str):
    """``(program, init, violations hook, max_events)`` of a case study."""
    from repro.casestudies.dekker import (
        DEKKER_INIT,
        dekker_entry_program,
        dekker_violations,
    )
    from repro.casestudies.peterson import (
        PETERSON_INIT,
        mutual_exclusion_violations,
        peterson_program,
        peterson_relaxed_turn,
    )
    from repro.casestudies.token_ring import (
        TOKEN_INIT,
        token_ring_program,
        token_ring_violations,
    )
    from repro.casestudies.barrier import (
        BARRIER_INIT,
        barrier_program,
        barrier_violations,
    )
    from repro.casestudies.seqlock import (
        SEQLOCK_INIT,
        seqlock_program,
        seqlock_relaxed_data,
        seqlock_violations,
    )
    from repro.casestudies.spinlock import (
        SPINLOCK_INIT,
        spinlock_broken,
        spinlock_program,
        spinlock_violations,
    )
    from repro.casestudies.ticket_lock import (
        TICKET_INIT,
        ticket_lock_program,
        ticket_lock_violations,
    )

    table = {
        "peterson": (peterson_program(once=True), PETERSON_INIT,
                     mutual_exclusion_violations, 8),
        "peterson-relaxed-turn": (peterson_relaxed_turn(once=True),
                                  PETERSON_INIT,
                                  mutual_exclusion_violations, 8),
        # Dekker's entry protocol is loop-free: no bound needed.
        "dekker-entry": (dekker_entry_program(release_acquire=False),
                         DEKKER_INIT, dekker_violations, None),
        "token-ring": (token_ring_program(n_threads=2), TOKEN_INIT,
                       token_ring_violations, 10),
        "spinlock-tas": (spinlock_program(), SPINLOCK_INIT,
                         spinlock_violations, 8),
        "spinlock-broken": (spinlock_broken(), SPINLOCK_INIT,
                            spinlock_violations, 8),
        "ticket-lock": (ticket_lock_program(), TICKET_INIT,
                        ticket_lock_violations, 10),
        # The seqlock attempts are loop-free: one snapshot per run.
        "seqlock": (seqlock_program(), SEQLOCK_INIT,
                    seqlock_violations, None),
        "seqlock-relaxed-data": (seqlock_relaxed_data(), SEQLOCK_INIT,
                                 seqlock_violations, None),
        "barrier": (barrier_program(), BARRIER_INIT,
                    barrier_violations, 8),
    }
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown case study {name!r}; choose from {sorted(table)}")


def _case_study_exploration(name: str, plan: SearchPlan):
    from repro.interp.explore import explore
    from repro.interp.ra_model import RAMemoryModel

    program, init, check, bound = _case_study_setup(name)
    return explore(
        program, init, RAMemoryModel(), check_config=check,
        **dataclasses.replace(plan, max_events=bound).options(),
    )


def _run_case_study_job(job: SuiteJob) -> SuiteJobResult:
    result = _case_study_exploration(job.name, job.plan)
    return SuiteJobResult(
        job=job,
        observed=not result.ok,
        expected=not CASE_STUDIES[job.name],
        pinned=True,
        terminal=len(result.terminal),
        truncated=result.truncated,
        wall_time=result.stats.time_total,
        stats=result.stats,
    )


def _run_verify_job(job: SuiteJob) -> SuiteJobResult:
    """Discharge one proof case study's obligations under one model.

    The search follows the job's plan with the entry's event bound; a
    reducing plan is rejected, since the obligations quantify over every
    reachable transition (DESIGN.md §10).
    """
    from repro.verify.registry import PROOFS

    report = PROOFS.get(job.name).check(job.model, plan=job.plan)
    stats = report.stats
    return SuiteJobResult(
        job=job,
        observed=not report.proved,
        expected=False,  # every registered outline is expected to prove
        pinned=True,
        terminal=0,
        truncated=report.truncated,
        wall_time=stats.time_total,
        stats=stats,
        obligations=report.obligations_discharged,
        failed_obligations=report.failed_obligations,
        detail="; ".join(str(f) for f in report.failures[:3]),
    )


def run_suite_job(job: SuiteJob) -> SuiteJobResult:
    """Execute one job — the worker entry point (must stay module-level
    so it pickles by reference)."""
    from repro.obs.trace import tracer

    tr = tracer()
    if tr is not None:
        tr.emit("job_start", job=job.label, kind=job.kind)
    t0 = time.perf_counter()
    if job.kind == "litmus":
        result = _run_litmus_job(job)
    elif job.kind == "case-study":
        result = _run_case_study_job(job)
    elif job.kind == "verify":
        result = _run_verify_job(job)
    elif job.kind == "fuzz":
        # lazy for the same reason as the registries: the fuzz package
        # imports the interpreters, which must not load with the engine
        from repro.fuzz.runner import run_fuzz_job

        result = run_fuzz_job(job)
    elif job.kind == "footprint":
        from repro.fuzz.runner import run_footprint_job

        result = run_footprint_job(job)
    else:
        raise ValueError(f"unknown job kind {job.kind!r}")
    # Report whole-job wall time (exploration + registry resolution),
    # not just the engine's in-loop time.
    result = dataclasses.replace(
        result, wall_time=time.perf_counter() - t0, worker_pid=os.getpid()
    )
    if tr is not None:
        tr.emit(
            "job_end", job=job.label, kind=job.kind, dur=result.wall_time,
            configs=result.stats.configs, verdict=result.verdict,
        )
    return result


def _run_suite_job_safely(job: SuiteJob) -> SuiteJobResult:
    """Worker entry point that never raises.

    An exception escaping a pool worker would abort the pool's result
    iterator and lose every other job's verdict, so a crash is reported
    *as a result*: a failed :class:`SuiteJobResult` carrying the
    traceback in ``detail``.  It counts as a mismatch in every footer —
    a crashed job must never read as a pass (or silently vanish)."""
    import traceback

    t0 = time.perf_counter()
    try:
        return run_suite_job(job)
    except Exception:
        return SuiteJobResult(
            job=job,
            observed=False,
            expected=False,
            pinned=True,
            terminal=0,
            truncated=False,
            wall_time=time.perf_counter() - t0,
            stats=EngineStats(),
            detail=traceback.format_exc(),
            failed=True,
            worker_pid=os.getpid(),
        )


def _run_indexed(pair: Tuple[int, SuiteJob]) -> Tuple[int, SuiteJobResult]:
    """Pool entry point: tags each result with its job's index so
    out-of-order completion (``imap_unordered``, which is what lets
    finished jobs reach the parent — and the progress callback —
    immediately) can be re-sorted into submission order."""
    index, job = pair
    return index, _run_suite_job_safely(job)


class ParallelRunner:
    """Run suite jobs across ``jobs`` worker processes.

    ``jobs <= 1`` runs everything in-process through the identical code
    path, which is both the degenerate case and the reference the
    parallel verdicts are compared against in tests.  Results always
    come back in submission order regardless of worker scheduling.
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)

    def run(
        self,
        work: Sequence[SuiteJob],
        progress: Optional[Callable[[SuiteJobResult], None]] = None,
    ) -> List[SuiteJobResult]:
        """Run the jobs; results return in submission order.

        Jobs are frozen name-only records and running one is
        deterministic, so each *distinct* job runs once and its result
        object fills every slot that submitted it.  Pooled runs hand the
        workers one job at a time (``imap_unordered`` with chunksize 1),
        so no worker idles behind a coarse partition of the batch.

        ``progress``, when given, is invoked in the parent once per
        filled slot, as each job completes — the stat deltas ride the
        pool's result pipe, no side channel.  The sequential path
        invokes it after each in-process job, so a heartbeat renders
        identically at ``--jobs 1``.

        Ctrl-C raises :class:`SuiteInterrupted` carrying every result
        completed so far; the pool is terminated and joined first, so
        no worker outlives the interrupt.
        """
        slots_of: Dict[SuiteJob, List[int]] = {}
        for slot, job in enumerate(work):
            slots_of.setdefault(job, []).append(slot)
        distinct = list(slots_of)
        slots: List[Optional[SuiteJobResult]] = [None] * len(work)

        def fill(index: int, result: SuiteJobResult) -> None:
            for slot in slots_of[distinct[index]]:
                slots[slot] = result
                if progress is not None:
                    progress(result)

        pool = None
        try:
            if self.jobs <= 1:
                for index, job in enumerate(distinct):
                    fill(index, _run_suite_job_safely(job))
            elif distinct:
                pool = multiprocessing.Pool(
                    processes=min(self.jobs, len(distinct))
                )
                for index, result in pool.imap_unordered(
                    _run_indexed, list(enumerate(distinct))
                ):
                    fill(index, result)
                pool.close()
                pool.join()
        except KeyboardInterrupt:
            # the finally clause terminates (not closes: workers are
            # mid-job and must not finish the queue) and joins the pool
            # before this propagates
            raise SuiteInterrupted([r for r in slots if r is not None]) from None
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()
        return slots  # type: ignore[return-value] — every slot is filled

    def aggregate(self, results: Sequence[SuiteJobResult]) -> dict:
        """Suite-level totals for the CLI footer.

        The jobs' stats records fold through :meth:`EngineStats.merge`,
        so every count, counter, timer and high-water mark appears under
        its field name.  The jobs' terminal and obligation counts sum
        alongside; ``jobs``, ``mismatches``, ``failures``,
        ``key_rate`` and ``worker_time`` (the sum of whole-job wall
        times) are derived.
        """
        merged = EngineStats.folded(r.stats for r in results)
        totals = merged.counters()
        for name in ("terminal", "obligations", "failed_obligations"):
            totals[name] = sum(getattr(r, name) for r in results)
        totals["jobs"] = len(results)
        totals["mismatches"] = sum(1 for r in results if not r.verdict_matches)
        totals["failures"] = sum(1 for r in results if r.failed)
        totals["key_rate"] = merged.key_rate
        totals["worker_time"] = sum(r.wall_time for r in results)
        return totals


__all__ = [
    "CASE_STUDIES",
    "ParallelRunner",
    "SuiteInterrupted",
    "SuiteJob",
    "SuiteJobResult",
    "case_study_jobs",
    "litmus_jobs",
    "run_suite_job",
    "verify_jobs",
]
