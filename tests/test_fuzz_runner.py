"""Campaign runner tests: chunking, worker parity, and the engine's
ParallelRunner carrying fuzz jobs."""

import json

import pytest

from fuzz_helpers import BrokenSRA
from repro.engine.parallel import ParallelRunner, run_suite_job
from repro.fuzz import oracles
from repro.fuzz.runner import (
    FootprintJob,
    FuzzJob,
    fuzz_jobs,
    run_campaign,
    run_fuzz_job,
)

ITERS = 12


def test_fuzz_jobs_cover_the_range_exactly():
    jobs = [j for j in fuzz_jobs(seed=3, iters=10, jobs=2) if j.kind == "fuzz"]
    indices = sorted(
        i for j in jobs for i in range(j.start, j.start + j.count)
    )
    assert indices == list(range(10))
    assert fuzz_jobs(seed=3, iters=0) == []


def test_fuzz_jobs_open_with_each_footprint_space_once():
    """One footprint job per clamped space, largest first and ahead of
    the program slices; none without the axiomatic oracle."""
    jobs = fuzz_jobs(seed=3, iters=10, jobs=2)
    spaces = [(j.n_events, j.n_variables) for j in jobs if j.kind == "footprint"]
    assert spaces == [(3, 2), (3, 1), (2, 2), (2, 1), (1, 2), (1, 1)]
    assert [j.kind for j in jobs[:6]] == ["footprint"] * 6
    assert all(j.kind == "fuzz" for j in jobs[6:])
    assert all(
        j.kind == "fuzz"
        for j in fuzz_jobs(seed=3, iters=10, jobs=2, axiomatic=False)
    )
    # another campaign's spaces are equal jobs, so a batch holding both
    # campaigns judges each space once
    assert fuzz_jobs(seed=4, iters=1, profile="wide")[:6] == jobs[:6]


def test_fuzz_jobs_are_picklable():
    import pickle

    job = FuzzJob(seed=1, start=0, count=2)
    assert pickle.loads(pickle.dumps(job)) == job
    result = run_suite_job(job)
    clone = pickle.loads(pickle.dumps(result))
    assert clone.detail == result.detail


def test_run_suite_job_dispatches_fuzz_kind():
    result = run_suite_job(FuzzJob(seed=0, start=0, count=2))
    assert result.job.kind == "fuzz"
    assert not result.observed  # healthy models: no divergence
    assert result.verdict == "ok"
    assert result.verdict_matches
    payload = json.loads(result.detail)
    assert payload == {"inconclusive": 0, "divergences": []}
    assert result.wall_time > 0  # whole-job time stamped by run_suite_job


def test_run_suite_job_dispatches_footprint_kind():
    result = run_suite_job(FootprintJob(n_events=2, n_variables=1))
    assert result.job.kind == "footprint"
    assert not result.observed  # the axiomatisations agree
    assert result.verdict == "ok"
    assert result.verdict_matches
    assert result.detail == ""


def test_campaign_parallel_matches_sequential():
    sequential = run_campaign(seed=2, iters=ITERS, axiomatic=False)
    parallel = run_campaign(seed=2, iters=ITERS, jobs=2, axiomatic=False)
    assert sequential.ok and parallel.ok
    assert sequential.stats.configs == parallel.stats.configs
    assert sequential.stats.transitions == parallel.stats.transitions
    assert sequential.inconclusive == parallel.inconclusive


def test_campaign_reports_divergences_with_shrunk_reproducers(monkeypatch):
    monkeypatch.setitem(oracles.ORACLE_MODELS, "sra", BrokenSRA)
    report = run_campaign(
        seed=11, iters=2, profile="wide", axiomatic=False
    )
    assert not report.ok
    record = report.divergences[0]
    assert record.kind == "refinement"
    assert record.shrunk_threads <= 3
    assert record.shrunk != record.original
    assert "C11" in record.shrunk  # replayable litmus text
    assert record.history


def test_parallel_runner_mixes_fuzz_and_litmus_jobs():
    from repro.engine.parallel import SuiteJob

    work = [
        SuiteJob(kind="litmus", name="SB", model="ra"),
        FuzzJob(seed=0, start=0, count=1),
    ]
    results = ParallelRunner(jobs=1).run(work)
    assert [r.job.kind for r in results] == ["litmus", "fuzz"]
    totals = ParallelRunner(jobs=1).aggregate(results)
    assert totals["jobs"] == 2
    assert totals["mismatches"] == 0


def test_unknown_profile_raises():
    import pytest

    with pytest.raises(ValueError):
        fuzz_jobs(seed=0, iters=1, profile="enormous")


def test_axiomatic_divergence_reported_once_and_unshrunk(monkeypatch):
    """A footprint-space defect is campaign-level: one record for the
    space, carrying no program to delta-debug, in process and through
    the pool (whose forked workers inherit the patch)."""
    monkeypatch.setattr(
        oracles, "_footprint_equivalence",
        lambda n, v: "forced space defect" if (n, v) == (2, 1) else "",
    )
    for jobs in (1, 2):
        report = run_campaign(seed=0, iters=6, profile="small", jobs=jobs)
        assert not report.ok
        assert len(report.divergences) == 1, jobs
        record = report.divergences[0]
        assert record.kind == "axiomatic"
        assert record.detail == "forced space defect"
        assert record.name == "footprint n=2 vars=1"
        assert record.shrunk == record.original
        assert record.shrink_attempts == 0


def test_worker_crash_becomes_campaign_divergence(monkeypatch):
    """A fuzz worker that raises must surface as a ``worker-crash``
    divergence record carrying the traceback — the campaign can never
    read as green past a crashed chunk."""
    import repro.fuzz.runner as runner_mod

    def boom(seed, index, profile):
        raise RuntimeError("injected fuzz worker crash")

    monkeypatch.setattr(runner_mod, "generate_case", boom)
    report = run_campaign(
        seed=0, iters=2, jobs=1, axiomatic=False, shrink=False,
    )
    assert not report.ok
    assert {r.kind for r in report.divergences} == {"worker-crash"}
    record = report.divergences[0]
    assert "injected fuzz worker crash" in record.detail
    assert "Traceback" in record.detail


@pytest.mark.parametrize("setting", [{"reduction": "bogus"}, {"max_configs": 0}])
def test_bad_oracle_setting_fails_the_campaign_before_any_program(
    monkeypatch, setting
):
    """A bad oracle setting is rejected when the jobs are built, not
    reported as one crash divergence per program (and then shrunk)."""
    import repro.fuzz.runner as runner_mod

    def never(seed, index, profile):
        raise AssertionError("a program ran despite a bad setting")

    monkeypatch.setattr(runner_mod, "generate_case", never)
    with pytest.raises(ValueError):
        run_campaign(0, 3, axiomatic=False, shrink=False, **setting)
    with pytest.raises(ValueError):
        fuzz_jobs(0, 3, **setting)
    with pytest.raises(ValueError):
        FuzzJob(**setting)
