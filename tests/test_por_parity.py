"""POR parity: reduced exploration must be outcome-identical to full.

The subsystem's contract (DESIGN.md §9, §13), checked wholesale: the
entire litmus registry under every model, every case study, and a slice
of generated fuzz programs, each explored with every reduction tier —
the parsimonious ``"optimal"`` — verdict for verdict, outcome set for
outcome set, truncation flag for truncation flag.  CI runs this file as the POR parity smoke job.
"""

import pytest

from repro.engine.parallel import CASE_STUDIES, _case_study_exploration
from repro.engine.plan import SearchPlan
from repro.fuzz.generator import PROFILES, generate_case
from repro.fuzz.oracles import check_program
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.interp.sra_model import SRAMemoryModel
from repro.litmus.extra import EXTRA_TESTS
from repro.litmus.registry import final_values, run_litmus
from repro.litmus.suite import ALL_TESTS

MODELS = {"ra": RAMemoryModel, "sra": SRAMemoryModel, "sc": SCMemoryModel}
REGISTRY = list(ALL_TESTS) + list(EXTRA_TESTS)

#: Every reduction tier the engine ships.
TIERS = ["optimal"]


def outcome_set(result):
    return frozenset(
        tuple(sorted(final_values(c).items())) for c in result.terminal
    )


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("reduction", TIERS)
def test_litmus_registry_verdict_parity(model_name, reduction):
    """Every registry test, verdict for verdict, under one model."""
    for test in REGISTRY:
        full = run_litmus(test, MODELS[model_name]())
        reduced = run_litmus(
            test, MODELS[model_name](), SearchPlan(reduction=reduction)
        )
        assert reduced.reachable == full.reachable, (
            f"{test.name} [{model_name}] verdict diverged under {reduction}"
        )
        assert reduced.result.truncated == full.result.truncated, (
            f"{test.name} [{model_name}] truncation diverged under {reduction}"
        )
        assert reduced.result.configs <= full.result.configs, (
            f"{test.name} [{model_name}] visited more configs under {reduction}"
        )
        assert outcome_set(reduced.result) == outcome_set(full.result), (
            f"{test.name} [{model_name}] outcome set diverged under {reduction}"
        )


@pytest.mark.parametrize("name", sorted(CASE_STUDIES))
@pytest.mark.parametrize("reduction", TIERS)
def test_case_study_verdict_parity(name, reduction):
    full = _case_study_exploration(name, SearchPlan())
    reduced = _case_study_exploration(name, SearchPlan(reduction=reduction))
    assert full.ok == reduced.ok
    assert full.truncated == reduced.truncated
    assert reduced.configs <= full.configs
    # The registry's expectation holds under reduction too.
    assert (not reduced.ok) == (not CASE_STUDIES[name])


@pytest.mark.parametrize("profile", ["default", "small"])
def test_fuzz_sample_outcome_parity(profile):
    """Generated programs: outcome sets identical under every model and
    every reduction tier (a slice of what `repro fuzz` checks
    campaign-wide)."""
    for index in range(12):
        case = generate_case(0, index, PROFILES[profile])
        bound = case.events_hint + 1
        for model_name, factory in MODELS.items():
            full = explore(
                case.program, case.init, factory(),
                max_events=bound, max_configs=50_000,
            )
            if full.truncated:
                continue
            for reduction in TIERS:
                reduced = explore(
                    case.program, case.init, factory(),
                    max_events=bound, max_configs=50_000, reduction=reduction,
                )
                assert outcome_set(reduced) == outcome_set(full), (
                    f"case {profile}#{index} [{model_name}] diverged "
                    f"under {reduction}"
                )
                assert reduced.configs <= full.configs


def test_fuzz_oracle_reports_por_parity():
    """The campaign oracle itself runs the parity check and passes on a
    healthy engine."""
    case = generate_case(0, 3, PROFILES["default"])
    report = check_program(case, reduction="optimal")
    assert report.ok, report.detail
    assert report.stats.expanded > 0  # the parity run actually happened


def test_fuzz_oracle_catches_a_broken_reduction(monkeypatch):
    """Plant a 'reduction' that drops terminal states; the parity oracle
    must flag it as a por-parity divergence."""
    import repro.engine.core as core
    from repro.engine import por

    real = por.explore_reduced

    def broken(program, init_values, model, plan, **hooks):
        result = real(program, init_values, model, plan, **hooks)
        result.terminal.clear()  # lose every outcome
        return result

    monkeypatch.setattr(por, "explore_reduced", broken)
    case = generate_case(0, 3, PROFILES["default"])
    report = check_program(case, reduction="optimal")
    assert report.divergence == "por-parity"
    assert "lost" in report.detail


def test_optimal_pins_peterson_at_bound_12():
    """The parsimonious explorer's Peterson figure (DESIGN.md §13): 245
    configurations at bound 12, with the unreduced search's outcomes."""
    from repro.casestudies.peterson import PETERSON_INIT, peterson_program

    results = {}
    for reduction in ("none", "optimal"):
        results[reduction] = explore(
            peterson_program(once=True), PETERSON_INIT, RAMemoryModel(),
            max_events=12, reduction=reduction,
        )
    assert outcome_set(results["optimal"]) == outcome_set(results["none"])
    assert results["optimal"].configs == 245


def test_fuzz_oracle_catches_a_broken_visited_key(monkeypatch):
    """Plant a visited-store key that collapses distinct states; the
    reduced search then prunes live configurations and loses outcomes,
    which the parity oracle must flag — the canary that a coarser key
    cannot silently make a reduction unsound."""
    from repro.engine.por import optimal

    monkeypatch.setattr(
        optimal, "_key_of",
        lambda config, model, canonicalize=True: (config.program, 0),
    )
    case = generate_case(0, 3, PROFILES["default"])
    report = check_program(case, reduction="optimal")
    assert report.divergence == "por-parity", report.detail
    assert "reduction=optimal" in report.detail


def test_fuzz_oracle_reports_capped_reduced_run_inconclusive(monkeypatch):
    """A reduced search that hits the config cap has an incomplete
    outcome set: the oracle must say *inconclusive*, never green."""
    from repro.engine import por

    real = por.explore_reduced

    def capped(program, init_values, model, plan, **hooks):
        result = real(program, init_values, model, plan, **hooks)
        result.capped = True
        result.truncated = True
        return result

    monkeypatch.setattr(por, "explore_reduced", capped)
    case = generate_case(0, 3, PROFILES["default"])
    report = check_program(case, reduction="optimal")
    assert report.inconclusive
    assert report.divergence is None
    assert "config cap" in report.detail


@pytest.mark.parametrize("reduction", ["none", "optimal"])
def test_capped_run_sets_both_flags_on_every_explorer(reduction):
    """Satellite contract: every explorer sets ``truncated`` *and*
    ``capped`` on the max-configs exit path, so downstream consumers
    (the parity oracle, the suite footer) can tell a bounded run from a
    complete one."""
    from repro.casestudies.peterson import PETERSON_INIT, peterson_program

    result = explore(
        peterson_program(once=True), PETERSON_INIT, RAMemoryModel(),
        max_events=12, max_configs=15, reduction=reduction,
    )
    assert result.capped and result.truncated
    assert result.configs <= 16


def test_optimal_counterexample_replays_unreduced():
    """A violation found by the parsimonious explorer must replay as a
    valid unreduced trace: every step of the counterexample is among
    the successors the *unreduced* interpreter generates from its
    source."""
    from repro.casestudies.peterson import (
        PETERSON_INIT,
        mutual_exclusion_violations,
        peterson_relaxed_turn,
    )
    from repro.interp.interpreter import (
        configuration_successors,
        initial_configuration,
    )

    model = RAMemoryModel()
    result = explore(
        peterson_relaxed_turn(once=True), PETERSON_INIT, model,
        max_events=10, check_config=mutual_exclusion_violations,
        reduction="optimal",
    )
    assert not result.ok
    trace = result.counterexample()
    assert trace, "violation must come with a trace"
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
        assert matches, f"trace step {step} not reproducible unreduced"
        cursor = matches[0].target
    assert mutual_exclusion_violations(cursor)
