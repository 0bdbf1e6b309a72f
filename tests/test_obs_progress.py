"""Live progress (DESIGN.md §14): the heartbeat and the result pipe.

Also pins the peak-frontier aggregation satellite: ``peak_*`` fields
are high-water marks and must fold across jobs by ``max``, never by
sum (summing reports a frontier no single exploration ever held).
"""

import io

from repro.engine.parallel import ParallelRunner, SuiteJobResult, litmus_jobs
from repro.engine.stats import EngineStats
from repro.obs.progress import Heartbeat


def _result(configs=10, wall=1.0, peak=5, failed=False):
    return SuiteJobResult(
        job=None, observed=True, expected=True, pinned=True,
        terminal=1, truncated=False, wall_time=wall,
        stats=EngineStats(
            configs=configs, transitions=configs * 2, peak_frontier=peak,
        ),
        failed=failed,
    )


def test_heartbeat_folds_results_and_renders():
    stream = io.StringIO()
    hb = Heartbeat(total=4, label="suite", stream=stream, force=True,
                   min_interval=0.0)
    hb(_result(configs=10, wall=1.0))
    hb(_result(configs=30, wall=3.0, failed=True))
    line = hb.line()
    assert line.startswith("[suite] 2/4 jobs")
    assert "40 configs" in line
    assert "eta" in line
    assert "lag x1.5" in line  # max 3.0 over mean 2.0
    assert "FAILED 1" in line
    assert "\r" in stream.getvalue()
    hb.finish()
    assert stream.getvalue().endswith("\n")


def test_heartbeat_inactive_on_non_tty():
    stream = io.StringIO()  # isatty() -> False
    hb = Heartbeat(total=2, stream=stream)
    hb(_result())
    hb.finish()
    assert stream.getvalue() == ""


def test_heartbeat_rate_limit():
    stream = io.StringIO()
    hb = Heartbeat(total=100, stream=stream, force=True, min_interval=3600)
    hb(_result())  # first paint goes through (last_paint starts at 0)
    first = stream.getvalue()
    hb(_result())
    hb(_result())
    assert stream.getvalue() == first  # within the interval: no repaint


def test_runner_invokes_progress_per_job_sequential():
    jobs = litmus_jobs(models=["ra"])[:3]
    seen = []
    results = ParallelRunner(jobs=1).run(jobs, progress=seen.append)
    assert len(seen) == len(results) == 3
    assert [r.job.name for r in seen] == [r.job.name for r in results]


def test_runner_invokes_progress_per_job_pool():
    jobs = litmus_jobs(models=["ra"])[:4]
    seen = []
    results = ParallelRunner(jobs=2).run(jobs, progress=seen.append)
    assert len(seen) == 4
    # streaming arrival order may differ, but the returned list keeps
    # submission order (the runner's documented contract)
    assert [r.job.name for r in results] == [j.name for j in jobs]
    assert sorted(r.job.name for r in seen) == sorted(j.name for j in jobs)
    assert all(r.worker_pid for r in results)


def test_aggregate_peak_fields_fold_by_max():
    runner = ParallelRunner(jobs=1)
    results = [
        _result(configs=10, peak=5),
        _result(configs=20, peak=9),
        _result(configs=30, peak=2),
    ]
    totals = runner.aggregate(results)
    assert totals["configs"] == 60  # additive fields still sum
    assert totals["peak_frontier"] == 9  # high-water mark: max, not 16
    assert "worker_pid" not in totals  # identity, not a statistic
