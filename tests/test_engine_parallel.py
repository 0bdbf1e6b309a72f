"""Tests for the parallel suite runner (repro.engine.parallel)."""

import dataclasses

import pytest

from repro.engine.parallel import (
    CASE_STUDIES,
    ParallelRunner,
    SuiteJob,
    case_study_jobs,
    litmus_jobs,
    run_suite_job,
)
from repro.engine.plan import SearchPlan

SMALL = ["SB", "MP+rel-acq", "CoRR"]


def _small_jobs(strategy="bfs"):
    return [
        SuiteJob(
            kind="litmus", name=name, model=model,
            plan=SearchPlan(strategy=strategy),
        )
        for name in SMALL
        for model in ("ra", "sc")
    ]


def test_litmus_jobs_cover_suite_times_models():
    from repro.litmus.suite import ALL_TESTS

    jobs = litmus_jobs(models=("ra", "sc"))
    assert len(jobs) == 2 * len(ALL_TESTS)
    assert {j.model for j in jobs} == {"ra", "sc"}


def test_jobs_and_results_are_picklable():
    import pickle

    job = _small_jobs()[0]
    assert pickle.loads(pickle.dumps(job)) == job
    result = run_suite_job(job)
    clone = pickle.loads(pickle.dumps(result))
    assert clone.observed == result.observed


def test_run_suite_job_matches_registry_verdicts():
    from repro.interp.ra_model import RAMemoryModel
    from repro.litmus.registry import run_litmus
    from repro.litmus.suite import test_by_name

    for name in SMALL:
        sequential = run_litmus(test_by_name(name), RAMemoryModel())
        job_result = run_suite_job(
            SuiteJob(kind="litmus", name=name, model="ra")
        )
        assert job_result.observed == sequential.reachable
        assert job_result.configs == sequential.configs
        assert job_result.verdict_matches


def test_parallel_verdicts_identical_to_sequential():
    work = _small_jobs()
    sequential = ParallelRunner(jobs=1).run(work)
    parallel = ParallelRunner(jobs=2).run(work)
    assert [(r.job, r.observed, r.configs, r.transitions) for r in parallel] == [
        (r.job, r.observed, r.configs, r.transitions) for r in sequential
    ]


def test_parallel_strategy_is_verdict_neutral():
    bfs = ParallelRunner(jobs=2).run(_small_jobs("bfs"))
    dfs = ParallelRunner(jobs=2).run(_small_jobs("dfs"))
    assert [(r.job.name, r.job.model, r.observed, r.configs) for r in bfs] == [
        (r.job.name, r.job.model, r.observed, r.configs) for r in dfs
    ]


def test_case_study_jobs_report_expected_verdicts():
    results = ParallelRunner(jobs=2).run(case_study_jobs())
    assert {r.job.name for r in results} == set(CASE_STUDIES)
    for r in results:
        assert r.verdict_matches, f"{r.job.name}: observed={r.observed}"


def test_sra_litmus_jobs_are_unpinned():
    result = run_suite_job(SuiteJob(kind="litmus", name="2+2W", model="sra"))
    assert not result.pinned
    assert result.verdict_matches  # unpinned never mismatches


def test_unknown_job_kind_and_names_raise():
    with pytest.raises(ValueError):
        run_suite_job(SuiteJob(kind="quux", name="SB"))
    with pytest.raises(KeyError):
        run_suite_job(SuiteJob(kind="litmus", name="no-such-test"))
    with pytest.raises(ValueError):
        run_suite_job(SuiteJob(kind="litmus", name="SB", model="tso"))
    with pytest.raises(ValueError):
        run_suite_job(SuiteJob(kind="case-study", name="no-such-study"))


def test_run_suite_parallel_path_matches_sequential():
    from repro.litmus.registry import run_suite
    from repro.litmus.suite import test_by_name

    tests = [test_by_name(n) for n in SMALL]
    sequential = run_suite(tests)
    parallel = run_suite(tests, jobs=2)
    assert [
        (o.test.name, o.model_name, o.reachable, o.expected, o.configs)
        for o in sequential
    ] == [
        (o.test.name, o.model_name, o.reachable, o.expected, o.configs)
        for o in parallel
    ]
    assert all(o.verdict_matches for o in parallel)


def test_run_suite_falls_back_for_non_registry_tests():
    """A modified copy of a registry test must not be silently swapped
    for the registry version by the name-resolving workers — run_suite
    detects it and runs sequentially on the caller's objects."""
    import dataclasses

    from repro.litmus.registry import run_suite
    from repro.litmus.suite import test_by_name

    original = test_by_name("SB")
    flipped = dataclasses.replace(
        original, outcome=lambda v: False, outcome_text="never"
    )
    outcomes = run_suite([flipped], jobs=2)
    assert all(not o.reachable for o in outcomes)  # ran the copy, not "SB"


def test_run_suite_falls_back_for_duplicate_models():
    """Duplicate models would collapse in the name-keyed parallel path;
    the sequential fallback must preserve one outcome per pair."""
    from repro.interp.ra_model import RAMemoryModel
    from repro.litmus.registry import run_suite
    from repro.litmus.suite import test_by_name

    tests = [test_by_name("SB")]
    outcomes = run_suite(
        tests, models=[RAMemoryModel(), RAMemoryModel()], jobs=2
    )
    assert len(outcomes) == 2


def test_run_suite_pools_duplicate_models_one_outcome_per_pair(monkeypatch):
    """A model listed twice goes through the pool like any other: one
    job per (test, model) pair, and the outcomes come back one per pair,
    in pair order."""
    from repro.engine.parallel import ParallelRunner
    from repro.interp.ra_model import RAMemoryModel
    from repro.interp.sc import SCMemoryModel
    from repro.litmus.registry import run_suite
    from repro.litmus.suite import test_by_name

    batches = []
    real_run = ParallelRunner.run

    def recording(self, work, *args, **kwargs):
        batches.append([(job.name, job.model) for job in work])
        return real_run(self, work, *args, **kwargs)

    monkeypatch.setattr(ParallelRunner, "run", recording)
    tests = [test_by_name("SB"), test_by_name("MP+rel-acq")]
    models = [RAMemoryModel(), SCMemoryModel(), RAMemoryModel()]
    outcomes = run_suite(tests, models=models, jobs=2)
    pairs = [(t.name, m.name.lower()) for t in tests for m in models]
    assert batches == [pairs]
    assert [(o.test.name, o.model_name.lower()) for o in outcomes] == pairs
    sequential = run_suite(tests, models=models, jobs=1)
    assert [(o.reachable, o.configs) for o in outcomes] == [
        (o.reachable, o.configs) for o in sequential
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_duplicate_jobs_run_once_in_submission_order(monkeypatch, jobs):
    """Each distinct job of a batch runs once and its one result object
    fills every slot that submitted it, in submission order."""
    import repro.engine.parallel as parallel

    calls = []
    real = parallel.run_suite_job

    def counted(job):
        calls.append(job)
        return real(job)

    monkeypatch.setattr(parallel, "run_suite_job", counted)
    sb, corr = _small_jobs()[0], _small_jobs()[4]
    work = [sb, corr, sb, sb, corr]
    seen = []
    results = ParallelRunner(jobs=jobs).run(work, progress=seen.append)
    assert [r.job for r in results] == work
    assert results[0] is results[2] is results[3]
    assert results[1] is results[4]
    assert results[0] is not results[1]
    assert len(seen) == len(work)  # the heartbeat counts every slot
    if jobs == 1:
        assert calls == [sb, corr]


def test_pool_rows_do_not_depend_on_progress():
    """Pooled runs take one dispatch path: a run without a callback
    returns the rows a run with one returns."""
    work = _small_jobs()

    def rows(results):
        return [
            (r.label, r.verdict, r.configs, r.transitions, r.failed)
            for r in results
        ]

    seen = []
    plain = ParallelRunner(jobs=2).run(work)
    streamed = ParallelRunner(jobs=2).run(work, progress=seen.append)
    assert rows(plain) == rows(streamed)
    assert sorted(r.label for r in seen) == sorted(r.label for r in plain)


def test_runner_empty_work_and_aggregate():
    runner = ParallelRunner(jobs=4)
    assert runner.run([]) == []
    results = runner.run(_small_jobs()[:2])
    totals = runner.aggregate(results)
    assert totals["jobs"] == 2
    assert totals["configs"] == sum(r.configs for r in results)
    assert totals["mismatches"] == 0


# ----------------------------------------------------------------------
# Sequential-fallback regressions (PR 1 paths): every scenario that
# cannot be shipped to name-resolving workers must fall back to the
# sequential path AND report verdicts identical to a jobs=1 run.
# ----------------------------------------------------------------------


def _outcome_rows(outcomes):
    return [
        (o.test.name, o.model_name, o.reachable, o.expected, o.configs)
        for o in outcomes
    ]


def test_fallback_non_registry_tests_verdict_parity():
    import dataclasses

    from repro.litmus.registry import run_suite
    from repro.litmus.suite import test_by_name

    flipped = dataclasses.replace(
        test_by_name("SB"), outcome=lambda v: False, outcome_text="never"
    )
    sequential = run_suite([flipped], jobs=1)
    parallel = run_suite([flipped], jobs=2)  # silently falls back
    assert _outcome_rows(parallel) == _outcome_rows(sequential)
    assert all(not o.reachable for o in parallel)


def test_fallback_unknown_model_verdict_parity():
    from repro.interp.sc import SCMemoryModel
    from repro.litmus.registry import run_suite
    from repro.litmus.suite import test_by_name

    class TSOish(SCMemoryModel):
        """Not in the ra/sra/sc worker factory table."""

        name = "TSOish"

    tests = [test_by_name(n) for n in SMALL]
    sequential = run_suite(tests, models=[TSOish()], jobs=1)
    parallel = run_suite(tests, models=[TSOish()], jobs=2)
    assert _outcome_rows(parallel) == _outcome_rows(sequential)
    assert [o.model_name for o in parallel] == ["TSOish"] * len(SMALL)


def test_fallback_duplicate_models_verdict_parity():
    from repro.interp.ra_model import RAMemoryModel
    from repro.litmus.registry import run_suite
    from repro.litmus.suite import test_by_name

    models = [RAMemoryModel(), RAMemoryModel()]
    sequential = run_suite([test_by_name("SB")], models=models, jobs=1)
    parallel = run_suite([test_by_name("SB")], models=models, jobs=2)
    assert len(parallel) == 2  # one outcome per (test, model) pair
    assert _outcome_rows(parallel) == _outcome_rows(sequential)


# ----------------------------------------------------------------------
# Partial-order reduction through the runner (PR 3)
# ----------------------------------------------------------------------


def test_reduction_jobs_verdict_parity():
    """The same litmus jobs under reduction report identical verdicts
    and never more configurations."""
    for plain, reduced in zip(
        [run_suite_job(j) for j in _small_jobs()],
        [
            run_suite_job(
                SuiteJob(
                    kind="litmus", name=j.name, model=j.model,
                    plan=dataclasses.replace(j.plan, reduction="optimal"),
                )
            )
            for j in _small_jobs()
        ],
    ):
        assert reduced.observed == plain.observed
        assert reduced.expected == plain.expected
        assert reduced.truncated == plain.truncated
        assert reduced.configs <= plain.configs


def test_job_factories_carry_reduction():
    optimal = SearchPlan(reduction="optimal")
    assert all(j.plan == optimal for j in litmus_jobs(plan=optimal))
    assert all(j.plan == optimal for j in case_study_jobs(plan=optimal))
    assert all(j.plan.reduction == "none" for j in litmus_jobs())


def test_case_study_jobs_verdict_parity_under_reduction():
    for name in CASE_STUDIES:
        plain = run_suite_job(SuiteJob(kind="case-study", name=name))
        reduced = run_suite_job(
            SuiteJob(
                kind="case-study", name=name,
                plan=SearchPlan(reduction="optimal"),
            )
        )
        assert reduced.observed == plain.observed
        assert reduced.verdict_matches and plain.verdict_matches
        assert reduced.configs <= plain.configs


def test_worker_crash_surfaces_as_failed_result():
    """A job that raises in a worker must come back as a failed result
    with the traceback in ``detail`` — never abort the run, never pass
    (satellite: crash surfacing)."""
    good = SuiteJob(kind="litmus", name="SB", model="ra")
    bad = SuiteJob(kind="litmus", name="no-such-test", model="ra")
    runner = ParallelRunner(jobs=1)
    results = runner.run([good, bad])
    assert not results[0].failed and results[0].verdict_matches
    crashed = results[1]
    assert crashed.failed
    assert crashed.verdict == "ERROR"
    assert not crashed.verdict_matches
    assert "Traceback" in crashed.detail
    assert "no-such-test" in crashed.detail
    assert "MISMATCH" in crashed.row()
    totals = runner.aggregate(results)
    assert totals["failures"] == 1
    assert totals["mismatches"] == 1


def test_worker_crash_surfaces_in_pool_path_too():
    """The pool path must survive a crashing job and still return every
    other job's verdict in submission order."""
    work = [
        SuiteJob(kind="litmus", name="SB", model="ra"),
        SuiteJob(kind="litmus", name="no-such-test", model="ra"),
        SuiteJob(kind="litmus", name="MP+rel-acq", model="sc"),
    ]
    results = ParallelRunner(jobs=2).run(work)
    assert [r.failed for r in results] == [False, True, False]
    assert results[0].verdict_matches and results[2].verdict_matches


def test_aggregate_with_no_results_has_no_zero_division():
    """Footer guards (satellite): an empty result set aggregates to
    zeros — ``key_rate`` and friends must not divide by zero."""
    totals = ParallelRunner(jobs=1).aggregate([])
    assert totals["jobs"] == 0
    assert totals["key_rate"] == 0.0
    assert totals["mismatches"] == 0
    assert totals["failures"] == 0


def test_aggregate_surfaces_reduction_counters():
    """The aggregator sums every integer stat field generically — the
    reduction counters show up instead of being silently dropped."""
    runner = ParallelRunner(jobs=1)
    optimal = SearchPlan(reduction="optimal")
    results = runner.run(
        [
            SuiteJob(kind="case-study", name=name, plan=optimal)
            for name in ("peterson", "token-ring")
        ]
    )
    totals = runner.aggregate(results)
    for key in ("pruned", "sleep_hits", "races", "revisits", "expanded"):
        assert key in totals
        assert totals[key] == sum(getattr(r, key) for r in results)
    assert totals["pruned"] > 0  # the reduction actually pruned work
    assert totals["races"] > 0


def test_stats_record_survives_the_pool():
    """Each job kind ships its whole EngineStats back through the pool,
    and the attribute forward on SuiteJobResult reads that record."""
    import pickle

    from perfbench.workloads import STAT_FIELDS
    from repro.fuzz.runner import FuzzJob

    # the forward must not recurse while unpickling (checked in-process
    # first: in a pool parent that recursion hangs the result handler)
    local = run_suite_job(SuiteJob(kind="litmus", name="SB", model="ra"))
    assert pickle.loads(pickle.dumps(local)).stats == local.stats
    work = [
        SuiteJob(kind="litmus", name="SB", model="ra"),
        SuiteJob(kind="case-study", name="peterson"),
        SuiteJob(kind="verify", name="dekker", model="sc"),
        FuzzJob(seed=0, start=0, count=1),
    ]
    results = ParallelRunner(jobs=2).run(work)
    assert [r.job.kind for r in results] == [
        "litmus", "case-study", "verify", "fuzz",
    ]
    for r in results:
        assert not r.failed, r.detail
        assert r.stats.time_keys > 0, r.label
        assert r.stats.time_expand > 0, r.label
        for name in STAT_FIELDS:
            assert getattr(r, name, 0) == getattr(r.stats, name), (r.label, name)
