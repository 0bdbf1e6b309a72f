"""The deterministic fault-injection harness (DESIGN.md §16).

Pins the :mod:`repro.faults` contract the chaos CI job and the
``--check-faults`` fuzz oracle lean on: the spec grammar (and its
loud rejection of malformed specs), the one-shot firing semantics
that keep injected faults from looping recovery forever, and the
precedence of :func:`set_plan` over ``REPRO_FAULTS``.

CI runs this file in the chaos job.
"""

import time

import pytest

from repro import faults
from repro.faults import FaultPlan, active_plan, clear_plan, set_plan


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test leaves the process with no armed fault plan."""
    yield
    clear_plan()


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------


def test_spec_parses_every_action():
    plan = FaultPlan(
        "kill-worker:shard=1,round=2;delay-queue:ms=5,shard=0;"
        "interrupt:configs=100"
    )
    assert plan.kills == {(1, 2)}
    assert plan.delays == {0: 0.005}
    assert plan.interrupt_configs == 100
    # the spec survives on the plan, so a fresh plan replays it
    replay = FaultPlan(plan.spec)
    assert replay.kills == plan.kills


def test_spec_accepts_repeats_and_blanks():
    plan = FaultPlan("kill-worker:shard=0,round=1; ;kill-worker:shard=2,round=1")
    assert plan.kills == {(0, 1), (2, 1)}
    # a global delay has no shard key
    assert FaultPlan("delay-queue:ms=7").delays == {None: 0.007}


@pytest.mark.parametrize(
    "spec,match",
    [
        ("explode:now=1", "unknown fault action"),
        ("kill-worker:shard=one,round=2", "must be an integer"),
        ("kill-worker:shard=1", "requires round"),
        ("kill-worker:shard", "expected key=value"),
        ("delay-queue:shard=1", "requires ms"),
        ("enospc:spill=1", "unknown fault action"),
        ("interrupt:configs=0", "configs must be >= 1"),
        ("interrupt:configs=5,extra=1", "unknown parameter"),
    ],
)
def test_malformed_specs_are_rejected(spec, match):
    with pytest.raises(ValueError, match=match):
        FaultPlan(spec)


# ----------------------------------------------------------------------
# One-shot firing semantics
# ----------------------------------------------------------------------


def test_kill_worker_fires_once_per_pair():
    plan = FaultPlan("kill-worker:shard=1,round=2")
    assert not plan.kill_worker_now(1, 1)
    assert not plan.kill_worker_now(0, 2)
    assert plan.kill_worker_now(1, 2)
    assert not plan.kill_worker_now(1, 2)  # disarmed after firing


def test_interrupt_fires_once_at_the_threshold():
    plan = FaultPlan("interrupt:configs=10")
    assert not plan.interrupt_due(9)
    assert plan.interrupt_due(10)
    assert not plan.interrupt_due(11)  # one-shot: never again


def test_delay_send_is_shard_selective():
    plan = FaultPlan("delay-queue:ms=40,shard=1")
    t0 = time.perf_counter()
    plan.delay_send(0)
    assert time.perf_counter() - t0 < 0.02  # other shards unaffected
    t0 = time.perf_counter()
    plan.delay_send(1)
    assert time.perf_counter() - t0 >= 0.03


# ----------------------------------------------------------------------
# The active plan: set_plan vs REPRO_FAULTS
# ----------------------------------------------------------------------


def test_no_plan_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    clear_plan()
    assert active_plan() is None


def test_env_plan_is_parsed_once_and_stateful(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "interrupt:configs=77")
    clear_plan()
    plan = active_plan()
    assert plan is not None and plan.interrupt_configs == 77
    # the same (stateful) object comes back, so one-shot stays one-shot
    assert active_plan() is plan
    assert plan.interrupt_due(80)
    assert not active_plan().interrupt_due(80)


def test_set_plan_overrides_and_disarms_env(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "interrupt:configs=1")
    override = FaultPlan("kill-worker:shard=0,round=1")
    set_plan(override)
    assert active_plan() is override
    # explicit None beats the environment: the supervisor's disarm
    set_plan(None)
    assert active_plan() is None
    # dropping the override restores the environment plan
    clear_plan()
    env_plan = active_plan()
    assert env_plan is not None and env_plan.interrupt_configs == 1


def test_fault_interrupt_carries_its_checkpoint():
    exc = faults.FaultInterrupt("stopped", checkpoint="/tmp/x.ckpt")
    assert exc.checkpoint == "/tmp/x.ckpt"
    assert faults.FaultInterrupt("stopped").checkpoint is None
