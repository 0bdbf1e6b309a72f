"""Tests for the bounded exhaustive explorer."""

import pytest

from repro.engine.plan import SearchPlan
from repro.engine.por import REDUCTIONS
from repro.interp.explore import explore, reachable_states
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.lang.builder import assign, eq, neg, acq, seq, skip, var, while_
from repro.lang.program import Program
from repro.lang.syntax import Lit, While


def test_single_write_program():
    result = explore(Program.parallel(assign("x", 1)), {"x": 0}, RAMemoryModel())
    # configs: initial + written
    assert result.configs == 2
    assert result.transitions == 1
    assert len(result.terminal) == 1
    assert not result.truncated
    assert result.ok


def test_dedup_collapses_interleavings():
    program = Program.parallel(assign("x", 1), assign("y", 1))
    result = explore(program, {"x": 0, "y": 0}, RAMemoryModel())
    # 4 logical configurations (neither/either/both), not 1+2+2+... naive tree
    assert result.configs == 4
    assert len(result.terminal) == 1


def test_truncation_flag_on_infinite_loop():
    program = Program.parallel(while_(eq(var("x"), 0)))  # spins forever
    result = explore(program, {"x": 0}, RAMemoryModel(), max_events=3)
    assert result.truncated
    assert result.terminal == []


def test_tau_cycle_terminates_without_bound():
    """while true do skip is a pure τ-cycle: dedup must close it."""
    program = Program.parallel(While(Lit(1), skip()))
    result = explore(program, {}, RAMemoryModel())
    assert result.configs <= 3
    assert not result.truncated


def test_check_config_collects_violations():
    program = Program.parallel(assign("x", 1))

    def check(config):
        return ["x written"] if config.state.last("x").wrval == 1 else []

    result = explore(program, {"x": 0}, RAMemoryModel(), check_config=check)
    assert len(result.violations) == 1
    assert not result.ok


def test_stop_on_violation_short_circuits():
    program = Program.parallel(assign("x", 1), assign("y", 1))
    result = explore(
        program,
        {"x": 0, "y": 0},
        RAMemoryModel(),
        check_config=lambda c: ["always"],
        stop_on_violation=True,
    )
    assert len(result.violations) == 1
    assert result.configs == 1


def test_max_configs_bound():
    program = Program.parallel(
        seq(assign("x", 1), assign("x", 2)),
        seq(assign("y", 1), assign("y", 2)),
    )
    result = explore(program, {"x": 0, "y": 0}, RAMemoryModel(), max_configs=3)
    assert result.truncated
    assert result.configs <= 3


def test_counterexample_trace_reconstruction():
    program = Program.parallel(seq(assign("x", 1), assign("x", 2)))

    def check(config):
        last = config.state.last("x")
        return ["reached 2"] if last and last.wrval == 2 else []

    result = explore(program, {"x": 0}, RAMemoryModel(), check_config=check)
    trace = result.counterexample()
    assert trace is not None
    assert [s.event.wrval for s in trace if s.event] == [1, 2]


def test_check_step_hook():
    program = Program.parallel(assign("x", 1))
    seen = []

    def check(step):
        if step.event is not None:
            seen.append(step.event.wrval)
        return []

    explore(program, {"x": 0}, RAMemoryModel(), check_step=check)
    assert seen == [1]


def test_reachable_states_dedup():
    program = Program.parallel(assign("x", 1), assign("y", 1))
    states, result = reachable_states(program, {"x": 0, "y": 0}, RAMemoryModel())
    assert len(states) == 4
    assert result.configs == 4


def test_sc_exploration_message_passing_is_strong():
    program = Program.parallel(
        seq(assign("d", 5), assign("f", 1)),
        seq(while_(neg(var("f")), skip()), assign("r", var("d"))),
    )
    result = explore(program, {"d": 0, "f": 0, "r": 0}, SCMemoryModel(), max_events=None)
    finals = {dict(c.state)["r"] for c in result.terminal}
    assert finals == {5}


def test_step_violation_counterexample_includes_violating_step():
    """Regression: a step-level violation records the *source* config,
    so the trace must end with the violating step itself — dropping it
    returned a trace that does not exhibit the violation."""
    program = Program.parallel(seq(assign("x", 1), assign("x", 2)))

    def check(step):
        if step.event is not None and step.event.wrval == 2:
            return ["wrote 2"]
        return []

    result = explore(program, {"x": 0}, RAMemoryModel(), check_step=check)
    trace = result.counterexample()
    assert trace is not None
    assert trace[-1] is result.violations[0].step
    assert [s.event.wrval for s in trace if s.event] == [1, 2]


def test_config_violation_counterexample_unchanged():
    program = Program.parallel(seq(assign("x", 1), assign("x", 2)))

    def check(config):
        last = config.state.last("x")
        return ["reached 2"] if last and last.wrval == 2 else []

    result = explore(program, {"x": 0}, RAMemoryModel(), check_config=check)
    trace = result.counterexample()
    assert [s.event.wrval for s in trace if s.event] == [1, 2]


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"strategy": "dfs"},
        {"reduction": "optimal"},
        {"shards": 2, "shard_processes": False},
    ],
    ids=["bfs", "dfs", "optimal", "shards=2"],
)
def test_parent_map_holds_threads_and_traces_replay(kwargs):
    """Every explorer records (parent key, tid) — never a step — and the
    counterexample replayed from those hops chains from the initial
    configuration to a violating one."""
    from repro.casestudies.peterson import (
        PETERSON_INIT,
        mutual_exclusion_violations,
        peterson_relaxed_turn,
    )

    result = explore(
        peterson_relaxed_turn(once=True), PETERSON_INIT, RAMemoryModel(),
        max_events=10, check_config=mutual_exclusion_violations, **kwargs,
    )
    assert not result.ok
    for parent, tid in result.parents.values():
        assert (parent is None) == (tid is None)
        assert tid is None or type(tid) is int
    cursor = result.initial
    for step in result.counterexample():
        assert step.source is cursor
        cursor = step.target
    assert mutual_exclusion_violations(cursor)


def test_max_configs_short_circuits_dead_work(monkeypatch):
    """Regression: after the max_configs cap was hit, the explorer kept
    draining the queue and canonicalising successors it could never
    enqueue.  Count key computations to prove the dead work is gone."""
    from repro.interp import canon

    calls = []
    real = canon.canonical_key

    def counting(state):
        calls.append(state)
        return real(state)

    monkeypatch.setattr(canon, "canonical_key", counting)
    program = Program.parallel(
        seq(assign("x", 1), assign("x", 2)),
        seq(assign("y", 1), assign("y", 2)),
    )
    uncapped = explore(program, {"x": 0, "y": 0}, RAMemoryModel())
    assert uncapped.configs > 5  # the space is big enough to bite

    calls.clear()
    result = explore(
        program, {"x": 0, "y": 0}, RAMemoryModel(), max_configs=3
    )
    assert result.truncated
    assert result.configs <= 3
    # At most: the initial state, the children discovered within the
    # cap, and the one discovery that trips the cap.  The seed code
    # keyed every successor of every drained configuration.
    assert len(calls) <= 3 + 1


def test_max_configs_still_runs_step_checks_after_cap(monkeypatch):
    """Capping must not silently drop per-transition checks: every
    popped configuration's outgoing steps are still checked — only the
    canonical keying of never-enqueued successors is skipped."""
    from repro.interp import canon

    program = Program.parallel(
        seq(assign("x", 1), assign("x", 2)),
        seq(assign("y", 1), assign("y", 2)),
    )

    def run(max_configs, key_calls=None):
        checked = []
        if key_calls is not None:
            real = canon.canonical_key

            def counting(state):
                key_calls.append(state)
                return real(state)

            monkeypatch.setattr(canon, "canonical_key", counting)
        result = explore(
            program,
            {"x": 0, "y": 0},
            RAMemoryModel(),
            max_configs=max_configs,
            check_step=lambda step: checked.append(step) or [],
        )
        return result, checked

    capped, checked = run(3)
    assert capped.truncated and capped.configs <= 3
    # All three popped configurations were expanded and step-checked.
    assert len(checked) == capped.transitions > 2

    key_calls = []
    run(3, key_calls)
    assert len(key_calls) <= 3 + 1  # keying stays short-circuited


def test_representatives_collection():
    """A ``check_config`` hook sees every visited configuration once."""
    program = Program.parallel(assign("x", 1))
    visited = []
    result = explore(
        program, {"x": 0}, RAMemoryModel(),
        check_config=lambda config: visited.append(config) or [],
    )
    assert len(visited) == result.configs
    assert len({(c.program, c.state) for c in visited}) == result.configs


def _rule(match, **options):
    """A table row: options that break one plan rule, and the message."""
    label = "-".join(
        [options.get("reduction", "none"), options.get("strategy", "bfs"), match]
        + [
            f"{key}={value}" for key, value in options.items()
            if key not in ("reduction", "strategy")
        ]
    )
    return pytest.param(options, match, id=label)


#: Every rule of the search plan, at least one row each.  No row writes a
#: file: a rejected plan never starts a search.
PLAN_RULES = [
    *(_rule("unknown reduction", reduction=r) for r in ("dpro", "sleep")),
    *(
        _rule("unknown search strategy", reduction=r, strategy="bsf")
        for r in REDUCTIONS
    ),
    _rule("unknown search strategy", strategy="iddfs"),
    *(_rule("max_events", reduction=r, max_events=-1) for r in REDUCTIONS),
    *(
        _rule("max_configs", reduction=r, max_configs=cap)
        for r in REDUCTIONS
        for cap in (0, -5)
    ),
    _rule("checkpoint/resume", canonicalize=False, checkpoint="run.ckpt"),
    _rule("checkpoint/resume", reduction="optimal", resume="run.ckpt"),
    _rule("checkpoint_every", checkpoint="run.ckpt", checkpoint_every=0),
    _rule("needs a checkpoint file", checkpoint_every=5),
    _rule("shards", shards=0),
    _rule("unreduced", reduction="optimal", shards=2),
    _rule("breadth-first", strategy="dfs", shards=2),
    _rule("canonical", canonicalize=False, shards=2),
]


@pytest.mark.parametrize("entry", ["explore", "SearchPlan"])
@pytest.mark.parametrize("options,match", PLAN_RULES)
def test_unknown_reduction_or_strategy_is_rejected_on_every_path(
    options, match, entry
):
    """Each plan rule lives in ``SearchPlan`` and nowhere else, and
    ``explore`` builds its plan before it picks a search path, so the
    plain, reduced, checkpoint and sharded paths all refuse a bad
    option with the plan's one message (rather than a path-specific
    one, a run that records a bogus strategy, or a one-config
    ``truncated`` result for a nonsense bound)."""
    with pytest.raises(ValueError, match=match):
        if entry == "SearchPlan":
            SearchPlan(**options)
        else:
            explore(
                Program.parallel(assign("x", 1)), {"x": 0}, RAMemoryModel(),
                **options,
            )


def test_search_plan_fingerprint_is_the_benchmarks_run_fingerprint(
    tmp_path, monkeypatch
):
    """``SearchPlan.fingerprint`` is the dict perfbench's ``ring4-durable``
    check asks ``run_fingerprint`` for, so the benchmark's snapshot
    check reads the run's own snapshot."""
    from perfbench.workloads import WORKLOADS, _checkpoint_error

    from repro.casestudies.token_ring import TOKEN_INIT
    from repro.engine import checkpoint

    expected = []

    def read_checkpoint(path, expect=None):
        expected.append(expect)
        return expect, {}

    monkeypatch.setattr(checkpoint, "read_checkpoint", read_checkpoint)
    inputs = WORKLOADS["ring4-durable"].setup(0, str(tmp_path))
    assert _checkpoint_error(inputs, inputs.kwargs["checkpoint"]) is None
    plan = SearchPlan(**inputs.kwargs)
    assert expected == [plan.fingerprint(inputs.program, TOKEN_INIT, inputs.model)]
