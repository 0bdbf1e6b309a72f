"""Signal robustness: interrupted runs die clean and resume honestly.

Two delivery paths for the same contract (DESIGN.md §16):

* **SIGTERM mid-sharded-run** — a real ``repro run --shards 3``
  subprocess is terminated mid-exploration.  It must exit nonzero,
  leave no worker processes behind (no zombies, no orphaned fleet
  wedging the queue), and leave its ``--checkpoint`` file valid — a
  later ``--resume`` finishes the very search the signal cut short,
  reporting the same counts as a run that was never touched.  The run
  is slowed deterministically with a ``delay-queue`` fault, so the
  signal always lands mid-flight without a giant workload.
* **Ctrl-C in the parallel suite runner** — ``ParallelRunner.run``
  must raise :class:`SuiteInterrupted` carrying every result completed
  before the interrupt, after terminating and joining its pool; the
  CLI turns that into a partial footer and exit 130.

CI runs this file in the chaos job.
"""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

import repro.engine.parallel as parallel_mod
from repro.engine.checkpoint import read_checkpoint
from repro.engine.parallel import (
    ParallelRunner,
    SuiteInterrupted,
    SuiteJob,
    SuiteJobResult,
)
from repro.engine.stats import EngineStats

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Three racing threads, bounded to 9 events: a few hundred
#: configurations over ~9 BFS rounds — shape, not size, is the point.
WORKLOAD = """\
C11 sig_workload (three threads of racing writes)
{ x = 0; y = 0; z = 0 }
P1: x := 1; y := (x^A); z := (y || 1)
P2: y := 2; z := (y^A); x := (z && 1)
P3: z := 3; x := (z^A); y := (x || 2)
"""


def spawn_run(litmus, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["REPRO_NO_LEDGER"] = "1"
    env.pop("REPRO_FAULTS", None)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "run", litmus,
            "--shards", "3", "--max-events", "9", *args,
        ],
        cwd=REPO, env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def session_pids(sid):
    """Every live pid in session ``sid`` (the spawned run's fleet)."""
    out = subprocess.run(
        ["ps", "-eo", "pid=,sid="], capture_output=True, text=True,
    ).stdout
    pids = []
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 2 and fields[1] == str(sid):
            pids.append(int(fields[0]))
    return pids


def wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {what}")


def configs_reported(stdout):
    match = re.search(r"(\d+) configurations", stdout)
    assert match, f"no configuration count in output:\n{stdout}"
    return int(match.group(1))


@pytest.mark.parametrize("sig", [signal.SIGTERM])
def test_sigterm_mid_sharded_run_is_clean_and_resumable(tmp_path, sig):
    litmus = str(tmp_path / "sig_workload.litmus")
    with open(litmus, "w", encoding="utf-8") as handle:
        handle.write(WORKLOAD)
    ckpt = str(tmp_path / "sig.ckpt")

    # the reference: the same run, never signalled, never slowed
    clean = spawn_run(litmus)
    out, err = clean.communicate(timeout=120)
    assert clean.returncode == 0, err
    expected = configs_reported(out)

    victim = spawn_run(
        litmus, "--checkpoint", ckpt, "--checkpoint-every", "1",
        "--inject-faults", "delay-queue:ms=250",
    )
    try:
        # wait until at least one barrier snapshot landed, then strike
        wait_for(
            lambda: os.path.exists(ckpt) and victim.poll() is None,
            60, "a checkpoint from the victim run",
        )
        os.kill(victim.pid, sig)
        out, err = victim.communicate(timeout=60)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.communicate()
    assert victim.returncode != 0, f"signalled run exited 0:\n{out}"

    # the whole fleet is gone: no zombies, no orphaned workers
    wait_for(
        lambda: not session_pids(victim.pid), 10,
        "the worker fleet to disappear",
    )

    # the snapshot the signal left behind is a valid, resumable
    # repro-ckpt/6 file (atomic writes: never torn)
    _, payload = read_checkpoint(ckpt)
    assert payload["algo"] == "shard"
    assert len(payload["cores"]) == 3  # one pickled core per shard
    assert payload["checkpoints"] >= 1

    resumed = spawn_run(litmus, "--resume", ckpt, "--stats")
    out, err = resumed.communicate(timeout=120)
    assert resumed.returncode == 0, err
    assert configs_reported(out) == expected
    assert "resumed" in out  # the stats footer says where it came from


# ----------------------------------------------------------------------
# Ctrl-C in the parallel suite runner
# ----------------------------------------------------------------------


def job_result(job):
    return SuiteJobResult(
        job=job, observed=True, expected=True, pinned=True,
        terminal=1, truncated=False, wall_time=0.0,
        stats=EngineStats(configs=1, transitions=1),
    )


def test_sequential_interrupt_carries_partial_results(monkeypatch):
    work = [SuiteJob(kind="litmus", name=n) for n in ("a", "b", "c")]
    calls = []

    def fake_job(job):
        if len(calls) == 1:
            raise KeyboardInterrupt
        calls.append(job)
        return job_result(job)

    monkeypatch.setattr(parallel_mod, "_run_suite_job_safely", fake_job)
    seen = []
    with pytest.raises(SuiteInterrupted) as excinfo:
        ParallelRunner(jobs=1).run(work, progress=seen.append)
    # exactly the completed prefix rides the exception (and reached the
    # progress heartbeat before the interrupt)
    assert [r.job.name for r in excinfo.value.results] == ["a"]
    assert [r.job.name for r in seen] == ["a"]
    assert isinstance(excinfo.value, KeyboardInterrupt)


class FakePool:
    """A pool whose result stream is cut short by Ctrl-C."""

    instances = []

    def __init__(self, processes):
        self.processes = processes
        self.terminated = 0
        self.joined = 0
        FakePool.instances.append(self)

    def imap_unordered(self, fn, items):
        items = list(items)
        yield fn(items[0])
        raise KeyboardInterrupt

    def terminate(self):
        self.terminated += 1

    def join(self):
        self.joined += 1

    def close(self):  # pragma: no cover - not reached on interrupt
        pass


def test_pool_interrupt_terminates_workers(monkeypatch):
    work = [SuiteJob(kind="litmus", name=n) for n in ("a", "b", "c")]
    monkeypatch.setattr(
        parallel_mod, "_run_indexed",
        lambda pair: (pair[0], job_result(pair[1])),
    )
    monkeypatch.setattr(
        parallel_mod.multiprocessing, "Pool", FakePool,
    )
    FakePool.instances.clear()
    with pytest.raises(SuiteInterrupted) as excinfo:
        ParallelRunner(jobs=2).run(work, progress=lambda r: None)
    assert [r.job.name for r in excinfo.value.results] == ["a"]
    (pool,) = FakePool.instances
    # terminate (not close), then join — before the exception escapes
    assert pool.terminated >= 1
    assert pool.joined >= 1


def test_interrupt_with_no_completed_results():
    """An immediate Ctrl-C still raises SuiteInterrupted, empty-handed
    — the CLI prints a zero-job footer instead of a traceback."""

    def boom(job):
        raise KeyboardInterrupt

    work = [SuiteJob(kind="litmus", name="a")]
    runner = ParallelRunner(jobs=1)
    original = parallel_mod._run_suite_job_safely
    parallel_mod._run_suite_job_safely = boom
    try:
        with pytest.raises(SuiteInterrupted) as excinfo:
            runner.run(work)
    finally:
        parallel_mod._run_suite_job_safely = original
    assert excinfo.value.results == []
