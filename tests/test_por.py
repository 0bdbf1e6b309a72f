"""Unit tests for the partial-order reduction subsystem (DESIGN.md §9)."""

import pytest

from repro.casestudies.peterson import (
    PETERSON_INIT,
    mutual_exclusion_violations,
    peterson_program,
    peterson_relaxed_turn,
)
from repro.engine.por import REDUCTIONS, StepFootprint, conflicts
from repro.engine.por.deps import (
    CONTROL_BIT,
    FootprintBits,
    masks_conflict,
    step_footprint,
)
from repro.interp.compiled import maybe_lower
from repro.interp.explore import explore
from repro.interp.interpreter import (
    configuration_successors,
    initial_configuration,
    thread_successor_list,
)
from repro.interp.pe_model import PEMemoryModel
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.interp.sra_model import SRAMemoryModel
from repro.lang.builder import acq, assign, label, seq, skip, swap, var, while_, eq
from repro.lang.program import Program
from repro.litmus.registry import final_values


def outcome_set(result):
    return frozenset(
        tuple(sorted(final_values(c).items())) for c in result.terminal
    )


def sb_program():
    return Program.parallel(
        seq(assign("x", 1), assign("r1", var("y"))),
        seq(assign("y", 1), assign("r2", var("x"))),
    )


SB_INIT = {"x": 0, "y": 0, "r1": 0, "r2": 0}


# ----------------------------------------------------------------------
# The dependency relation
# ----------------------------------------------------------------------


def fp(reads=(), writes=(), visible=False):
    return StepFootprint(frozenset(reads), frozenset(writes), visible)


def test_conflicts_same_location_at_least_one_write():
    assert conflicts(fp(writes=["x"]), fp(reads=["x"]))
    assert conflicts(fp(reads=["x"]), fp(writes=["x"]))
    assert conflicts(fp(writes=["x"]), fp(writes=["x"]))
    assert not conflicts(fp(reads=["x"]), fp(reads=["x"]))
    assert not conflicts(fp(writes=["x"]), fp(writes=["y"], reads=["z"]))
    assert not conflicts(fp(), fp(writes=["x"]))


def test_rmw_conflicts_with_everything_on_its_location():
    rmw = fp(reads=["x"], writes=["x"])
    assert conflicts(rmw, fp(reads=["x"]))
    assert conflicts(rmw, fp(writes=["x"]))
    assert conflicts(rmw, rmw)
    assert not conflicts(rmw, fp(reads=["y"], writes=["y"]))


def test_visible_steps_are_pairwise_dependent():
    assert conflicts(fp(visible=True), fp(visible=True))
    assert not conflicts(fp(visible=True), fp())


def test_footprint_bits_number_locations_and_threads_per_search():
    bits = FootprintBits()
    assert [bits.thread(t) for t in (41, 7, 41, 12)] == [1, 2, 1, 4]
    touched, written = bits.masks(fp(reads=["y"], writes=["x"], visible=True))
    assert written & CONTROL_BIT and touched & CONTROL_BIT
    assert set(bits.locations(touched)) == {"x", "y"}
    assert list(bits.locations(written)) == ["x"]
    assert bits.masks(fp()) == (0, 0)
    assert FootprintBits().thread(41) == 1


def _registry_footprints(monkeypatch):
    """Every footprint the ``optimal`` explorer's node templates build
    over the litmus registry under SC, RA and SRA, with control
    visibility on and off."""
    import repro.engine.por.optimal as optimal_module
    from repro.litmus.extra import EXTRA_TESTS
    from repro.litmus.suite import ALL_TESTS

    seen = set()

    def recording(*args, **kwargs):
        footprint = step_footprint(*args, **kwargs)
        seen.add(footprint)
        return footprint

    monkeypatch.setattr(optimal_module, "step_footprint", recording)
    for test in list(ALL_TESTS) + list(EXTRA_TESTS):
        for model in (SCMemoryModel, RAMemoryModel, SRAMemoryModel):
            for hook in (None, lambda config: []):
                explore(
                    test.program, test.init, model(),
                    max_events=test.max_events, reduction="optimal",
                    check_config=hook,
                )
    return seen


def test_mask_conflicts_agree_with_conflicts_on_registry_footprints(monkeypatch):
    """The explorer tests conflicts on masks only; they must be
    :func:`conflicts` exactly, on every pair of footprints it meets."""
    footprints = sorted(
        _registry_footprints(monkeypatch),
        key=lambda f: (sorted(f.reads), sorted(f.writes), f.visible),
    )
    assert any(f.visible for f in footprints)
    assert any(f.reads & f.writes for f in footprints)  # RMWs
    bits = FootprintBits()
    masks = [bits.masks(f) for f in footprints]
    for a, ma in zip(footprints, masks):
        assert set(bits.locations(ma[0])) == a.reads | a.writes
        assert set(bits.locations(ma[1])) == a.writes
        for b, mb in zip(footprints, masks):
            assert masks_conflict(ma, mb) == conflicts(a, b), (a, b)


def test_model_step_footprints():
    program = maybe_lower(
        Program.parallel(seq(assign("x", 1), assign("r", var("y"))))
    )
    steps = program.pending_steps()
    (tid, step), = steps.items()
    for model in (RAMemoryModel(), SRAMemoryModel(), SCMemoryModel()):
        reads, writes = model.step_footprint(None, tid, step)
        assert (reads, writes) == (frozenset(), frozenset({"x"}))
    # PE: Proposition 4.1 — steps of distinct threads commute outright.
    reads, writes = PEMemoryModel(frozenset({0, 1})).step_footprint(None, tid, step)
    assert reads == writes == frozenset()


@pytest.mark.parametrize(
    "model",
    [SCMemoryModel(), RAMemoryModel(), SRAMemoryModel(),
     PEMemoryModel(frozenset({0, 1}))],
    ids=lambda m: type(m).__name__,
)
def test_footprint_depends_on_the_step_alone(model):
    """The ``MemoryModel.step_footprint`` contract the ``optimal``
    explorer's per-machine-state templates rely on: one step, asked from
    two different states, has one footprint."""
    program = Program.parallel(
        assign("x", 1), seq(assign("r", var("x")), assign("x", 2)),
    )
    config = initial_configuration(program, {"x": 0, "r": 0}, model)
    steps = config.program.pending_steps()
    writer, reader = sorted(steps)
    (after,) = thread_successor_list(config, model, writer, steps[writer])
    assert after.target.state != config.state
    assert after.target.program.pending_steps()[reader] is steps[reader]
    for tid, step in ((reader, steps[reader]), (writer, steps[writer])):
        assert model.step_footprint(config.state, tid, step) == (
            model.step_footprint(after.target.state, tid, step)
        )


def test_swap_footprint_is_read_and_write():
    program = maybe_lower(Program.parallel(swap("turn", 2)))
    (tid, step), = program.pending_steps().items()
    reads, writes = RAMemoryModel().step_footprint(None, tid, step)
    assert reads == writes == frozenset({"turn"})


def test_control_visibility_is_exact_per_step():
    # Retiring a label changes the pc: visible.
    com = seq(label(2, assign("x", 1)), label(3, skip()))
    (step,) = maybe_lower(Program.parallel(com)).pending_steps().values()
    assert step.control_visible
    # A guard read inside a label leaves the pc alone: invisible.
    program = maybe_lower(Program.parallel(label(4, while_(eq(acq("f"), 1), skip()))))
    (step,) = program.pending_steps().values()
    assert step.is_read_hole
    assert not step.control_visible
    assert program.pc(1) == 4 and not program.is_terminated()


def test_footprint_tracks_control_only_when_asked():
    program = maybe_lower(Program.parallel(label(2, assign("x", 1))))
    (tid, step), = program.pending_steps().items()
    model = RAMemoryModel()
    assert not step_footprint(model, None, tid, step, False).visible
    assert step_footprint(model, None, tid, step, True).visible


# ----------------------------------------------------------------------
# explore(..., reduction=...) plumbing
# ----------------------------------------------------------------------


def test_reductions_tuple_and_validation():
    assert REDUCTIONS == ("none", "optimal")
    with pytest.raises(ValueError, match="unknown reduction"):
        explore(sb_program(), SB_INIT, SCMemoryModel(), reduction="ample")


def test_check_step_hooks_reject_reduction():
    with pytest.raises(ValueError, match="check_step"):
        explore(
            sb_program(), SB_INIT, SCMemoryModel(),
            check_step=lambda step: [], reduction="optimal",
        )


def test_reduction_none_is_the_default_loop():
    result = explore(sb_program(), SB_INIT, SCMemoryModel())
    assert result.stats.reduction == "none"
    assert result.stats.pruned == 0
    assert result.stats.reduction_ratio == 0.0


def test_thread_successors_slices_configuration_successors():
    model = RAMemoryModel()
    config = initial_configuration(sb_program(), SB_INIT, model)
    by_thread = [
        (tid, step.target)
        for tid, pending in sorted(config.program.pending_steps().items())
        for step in thread_successor_list(config, model, tid, pending)
    ]
    full = [(s.tid, s.target) for s in configuration_successors(config, model)]
    assert by_thread == full


# ----------------------------------------------------------------------
# Optimal DPOR: outcome-identical with fewer configurations
# ----------------------------------------------------------------------


def test_optimal_outcome_parity_store_buffering():
    for model in (SCMemoryModel(), SRAMemoryModel(), RAMemoryModel()):
        full = explore(sb_program(), SB_INIT, model)
        reduced = explore(sb_program(), SB_INIT, model, reduction="optimal")
        assert outcome_set(reduced) == outcome_set(full)
        assert reduced.configs <= full.configs
        assert reduced.truncated == full.truncated


def test_optimal_reduces_peterson_at_least_2x_at_bound_12():
    full = explore(
        peterson_program(once=True), PETERSON_INIT, RAMemoryModel(),
        max_events=12,
    )
    reduced = explore(
        peterson_program(once=True), PETERSON_INIT, RAMemoryModel(),
        max_events=12, reduction="optimal",
    )
    assert outcome_set(reduced) == outcome_set(full)
    assert reduced.truncated == full.truncated
    assert reduced.configs * 2 <= full.configs
    assert reduced.stats.races > 0
    assert reduced.stats.pruned > 0
    assert 0.0 < reduced.stats.reduction_ratio < 1.0


def test_optimal_independent_threads_explore_single_interleaving():
    """Three threads writing disjoint variables: one trace suffices."""
    program = Program.parallel(assign("x", 1), assign("y", 1), assign("z", 1))
    init = {"x": 0, "y": 0, "z": 0}
    full = explore(program, init, SCMemoryModel())
    reduced = explore(program, init, SCMemoryModel(), reduction="optimal")
    assert outcome_set(reduced) == outcome_set(full)
    # The reduced search walks one path plus its prefix states.
    assert reduced.configs == 4 < full.configs
    assert reduced.stats.races == 0


def test_optimal_violation_verdicts_match_for_correct_peterson():
    full = explore(
        peterson_program(once=True), PETERSON_INIT, RAMemoryModel(),
        max_events=10, check_config=mutual_exclusion_violations,
    )
    reduced = explore(
        peterson_program(once=True), PETERSON_INIT, RAMemoryModel(),
        max_events=10, check_config=mutual_exclusion_violations,
        reduction="optimal",
    )
    assert full.ok and reduced.ok
    assert reduced.configs <= full.configs


def test_optimal_stop_on_violation_stops():
    result = explore(
        peterson_relaxed_turn(once=True), PETERSON_INIT, RAMemoryModel(),
        max_events=10, check_config=mutual_exclusion_violations,
        stop_on_violation=True, reduction="optimal",
    )
    assert len(result.violations) == 1


def test_optimal_max_configs_cap_sets_flags():
    result = explore(
        peterson_program(once=True), PETERSON_INIT, RAMemoryModel(),
        max_events=10, max_configs=20, reduction="optimal",
    )
    assert result.capped and result.truncated
    assert result.configs <= 21


def test_dpor_mutant_violation_found_and_replays_unreduced():
    """A violation found by any tier must replay as a valid unreduced
    trace: every step of the counterexample is among the successors the
    *unreduced* interpreter generates from its source."""
    model = RAMemoryModel()
    for reduction in ("none", "optimal"):
        result = explore(
            peterson_relaxed_turn(once=True), PETERSON_INIT, model,
            max_events=10, check_config=mutual_exclusion_violations,
            reduction=reduction,
        )
        assert not result.ok
        trace = result.counterexample()
        assert trace, "violation must come with a trace"
        # The canonical entry point applies the same program lowering
        # the engine applied, so trace programs and replay programs
        # compare.
        cursor = initial_configuration(
            peterson_relaxed_turn(once=True), PETERSON_INIT, model
        )
        for step in trace:
            candidates = list(configuration_successors(cursor, model))
            matches = [
                s for s in candidates
                if s.tid == step.tid
                and s.event == step.event
                and s.read_value == step.read_value
                and s.target.program == step.target.program
                and model.canonical_state_key(s.target.state)
                == model.canonical_state_key(step.target.state)
            ]
            assert matches, (
                f"{reduction}: trace step {step} not reproducible unreduced"
            )
            cursor = matches[0].target


def test_pe_model_reduces_to_per_thread_sequences():
    """Under PE every cross-thread pair commutes (Proposition 4.1), so
    optimal DPOR explores a single interleaving per value-guess
    combination."""
    program = sb_program()
    model = PEMemoryModel.for_program(program, SB_INIT)
    full = explore(program, SB_INIT, model)
    reduced = explore(program, SB_INIT, model, reduction="optimal")
    # PE states are pre-executions, not C11 states: compare terminal
    # state sets by canonical key rather than by final values.
    keys = lambda r: {  # noqa: E731 — local shorthand
        model.canonical_state_key(c.state) for c in r.terminal
    }
    assert keys(reduced) == keys(full)
    assert reduced.configs < full.configs
    assert reduced.stats.races == 0


# ----------------------------------------------------------------------
# EngineStats: the new reduction fields
# ----------------------------------------------------------------------


def test_optimal_ring4_b8_traced_peak_memory():
    """The per-key bookkeeping is a few ints (DESIGN.md §13): ring4 b8
    peaks near 3 MB traced, where per-key sets peaked above 6 MB."""
    import tracemalloc

    from repro.casestudies.token_ring import (
        TOKEN_INIT,
        token_ring_program,
        token_ring_violations,
    )

    tracemalloc.start()
    try:
        result = explore(
            token_ring_program(n_threads=4), TOKEN_INIT, RAMemoryModel(),
            max_events=8, reduction="optimal",
            check_config=token_ring_violations,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.configs == 4609
    assert peak < 4.5 * 2**20, peak


def test_stats_summary_mentions_reduction():
    reduced = explore(
        peterson_program(once=True), PETERSON_INIT, RAMemoryModel(),
        max_events=8, reduction="optimal",
    )
    line = reduced.stats.summary()
    assert "reduction=optimal" in line
    assert "races=" in line and "sleep-hits=" in line
    plain = explore(sb_program(), SB_INIT, SCMemoryModel()).stats.summary()
    assert "reduction=" not in plain


def test_stats_merge_accumulates_reduction_counters():
    from repro.engine.stats import EngineStats

    a = EngineStats(expanded=3, pruned=2, sleep_hits=1, races=4, revisits=5)
    b = EngineStats(expanded=1, pruned=1, sleep_hits=1, races=1, revisits=1)
    a.merge(b)
    assert (a.expanded, a.pruned, a.sleep_hits, a.races, a.revisits) == (
        4, 3, 2, 5, 6,
    )
    assert a.reduction_ratio == pytest.approx(3 / 7)
