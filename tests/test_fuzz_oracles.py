"""Oracle tests: the refinement chain on known programs, divergence
detection with deliberately broken models, and bound handling."""

import pytest
from fuzz_helpers import BrokenSRA

from repro.c11.state import C11State
from repro.fuzz import oracles
from repro.fuzz.generator import PROFILES, GeneratedCase, generate_case
from repro.fuzz.oracles import REFINEMENT_CHAIN, check_program
from repro.interp.ra_model import RAMemoryModel
from repro.lang.builder import assign, seq, var
from repro.lang.program import Program
from repro.litmus.registry import final_values


class _CrashingRA(RAMemoryModel):
    def transitions_list(self, state, tid, step):
        raise RuntimeError("deliberately broken")


class _RelationalRA(RAMemoryModel):
    """RA grown from a hand-assembled initial state: the successors
    take the definitional path, so no state carries a compact form."""

    def initial(self, init_values):
        s = super().initial(init_values)
        return C11State(s.events, s.sb, s.rf, s.mo, fast_eco=s.fast_eco)


def _sb_case() -> GeneratedCase:
    """Store buffering as a fuzz case — the canonical chain witness."""
    program = Program.parallel(
        seq(assign("x", 1), assign("r1", var("y"))),
        seq(assign("y", 1), assign("r2", var("x"))),
    )
    init = {"x": 0, "y": 0, "r1": 0, "r2": 0}
    # 3 events per thread: wr(x,1), then rd(y)+wr(r1) for the copy
    return GeneratedCase(name="sb", program=program, init=init, events_hint=6)


def test_chain_holds_on_store_buffering():
    report = check_program(_sb_case())
    assert report.ok and not report.inconclusive
    sc, sra, ra = (report.outcomes[m] for m in REFINEMENT_CHAIN)
    assert sc <= sra <= ra
    # the weak outcome r1 = r2 = 0 exists under RA but not under SC
    weak = (("r1", 0), ("r2", 0), ("x", 1), ("y", 1))
    assert weak in ra and weak not in sc


@pytest.mark.parametrize("profile", ["small", "default"])
def test_generated_programs_pass_all_oracles(profile):
    for index in range(10):
        case = generate_case(1, index, PROFILES[profile])
        report = check_program(case)
        assert report.ok, f"#{index}: {report.divergence}: {report.detail}"
        assert not report.inconclusive
        assert report.outcomes["sc"], "generated program must terminate"


def test_broken_model_triggers_refinement_divergence(monkeypatch):
    monkeypatch.setitem(oracles.ORACLE_MODELS, "sra", BrokenSRA)
    case = generate_case(11, 0, PROFILES["wide"])
    report = check_program(case)
    assert report.divergence == "refinement"
    assert "reachable under sc but not under sra" in report.detail


def test_crashing_model_is_a_finding_not_an_error(monkeypatch):
    monkeypatch.setitem(oracles.ORACLE_MODELS, "ra", _CrashingRA)
    report = check_program(_sb_case())
    assert report.divergence == "crash"
    assert "deliberately broken" in report.detail


def test_state_without_compact_form_is_an_orders_divergence(monkeypatch):
    """The derived-order oracle cannot pass vacuously: an RA-reachable
    state with no compact form to check is reported, not skipped."""
    monkeypatch.setitem(oracles.ORACLE_MODELS, "ra", _RelationalRA)
    assert check_program(_sb_case()).ok
    report = check_program(_sb_case(), check_orders=True)
    assert report.divergence == "orders"
    assert "no compact form" in report.detail


def test_capped_exploration_is_inconclusive_not_divergent():
    report = check_program(_sb_case(), max_configs=3)
    assert report.inconclusive
    assert report.divergence is None


def test_nonterminating_replay_is_reported():
    """An empty SC outcome set (program never terminates) is flagged as a
    divergence — generated programs terminate by construction, so this
    path only fires on hand-edited corpus entries."""
    from repro.lang.builder import loop_forever, skip

    case = GeneratedCase(
        name="spin",
        program=Program.parallel(loop_forever(skip())),
        init={"x": 0},
        events_hint=0,
    )
    report = check_program(case)
    assert report.divergence == "refinement"
    assert "does not terminate" in report.detail


def test_check_program_never_judges_footprints(monkeypatch):
    """The footprint oracle is batch-level (one job per space), so no
    per-program check may enumerate a space, even for a program small
    enough to clamp to one."""

    def judged(n_events, n_variables):
        raise AssertionError("check_program judged a footprint space")

    monkeypatch.setattr(oracles, "_footprint_equivalence", judged)
    case = GeneratedCase(
        name="one-write",
        program=Program.parallel(assign("x", 1)),
        init={"x": 0},
        events_hint=1,
    )
    assert check_program(case).ok
    assert check_program(_sb_case()).ok


def test_footprint_equivalence_is_memoized():
    from repro.fuzz.oracles import _footprint_equivalence

    _footprint_equivalence.cache_clear()
    assert _footprint_equivalence(2, 1) == ""
    before = _footprint_equivalence.cache_info().hits
    assert _footprint_equivalence(2, 1) == ""
    assert _footprint_equivalence.cache_info().hits == before + 1


def test_lowering_parity_holds_on_generated_programs():
    """The step tables agree with the reference semantics on generated
    programs too (the local check of tests/test_lower_parity.py)."""
    from test_lower_parity import reference_mismatches

    for index in range(5):
        case = generate_case(2, index, PROFILES["small"])
        for name in REFINEMENT_CHAIN:
            problems = reference_mismatches(
                case.program, case.init, oracles.ORACLE_MODELS[name](),
                case.events_hint + 1,
            )
            assert not problems, f"#{index} [{name}]: {problems[:3]}"


def test_shard_parity_leg_folds_its_whole_record():
    """The shard-parity run's stats reach the report whole, routing
    counters included."""
    report = check_program(
        _sb_case(), reduction="none", check_shards=True
    )
    assert report.ok, report.detail
    assert report.stats.shard_sent > 0


def test_fault_parity_leg_folds_its_whole_record():
    """The fault-parity rerun resumes from the checkpoint written before
    its interrupt, and its record (``resumed`` included) reaches the
    report."""
    report = check_program(
        _sb_case(), reduction="none", check_faults=True
    )
    assert report.ok, report.detail
    assert report.stats.resumed == 1


# ----------------------------------------------------------------------
# Parity-leg canaries: a variant run that drifts from the full search is
# reported under its own leg's kind
# ----------------------------------------------------------------------

LEGS = {
    "por-parity": {"reduction": "optimal"},
    "shard-parity": {"reduction": "none", "check_shards": True},
    "fault-parity": {"reduction": "none", "check_faults": True},
}


def _lose_an_outcome(result):
    lost = final_values(result.terminal[0])
    result.terminal[:] = [
        c for c in result.terminal if final_values(c) != lost
    ]


def _flip_truncation(result):
    result.truncated = not result.truncated


def _grow_count(result):
    result.stats.configs += 1000


def _shrink_count(result):
    result.stats.configs -= 1


def _plant(monkeypatch, mutate):
    """Mutate every parity leg's variant run with ``mutate``."""
    real = oracles._run_leg

    def drifted(*args):
        result = real(*args)
        mutate(result)
        return result

    monkeypatch.setattr(oracles, "_run_leg", drifted)


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (_lose_an_outcome, "lost"),
        (_flip_truncation, "truncation flag diverged"),
        (_grow_count, "distinct configurations"),
    ],
    ids=["lose-outcome", "flip-truncation", "change-count"],
)
@pytest.mark.parametrize("kind", sorted(LEGS))
def test_each_parity_leg_reports_its_own_kind(monkeypatch, kind, mutate, needle):
    assert check_program(_sb_case(), **LEGS[kind]).ok
    _plant(monkeypatch, mutate)
    report = check_program(_sb_case(), **LEGS[kind])
    assert report.divergence == kind, report.detail
    assert needle in report.detail
    assert not report.inconclusive


@pytest.mark.parametrize("kind", sorted(LEGS))
def test_only_a_reduction_may_visit_fewer_configs(monkeypatch, kind):
    """The count rule: a reduction prunes, while sharding and recovery
    partition or replay the same search and must match exactly."""
    _plant(monkeypatch, _shrink_count)
    report = check_program(_sb_case(), **LEGS[kind])
    if kind == "por-parity":
        assert report.ok, report.detail
    else:
        assert report.divergence == kind
        assert "the count must match" in report.detail


@pytest.mark.parametrize("setting", [{"reduction": "bogus"}, {"max_configs": 0}])
def test_bad_oracle_setting_raises_before_any_exploration(monkeypatch, setting):
    """A bad setting is a usage error, not a crash of the program."""

    def never(*args, **kwargs):
        raise AssertionError("explored despite a bad setting")

    monkeypatch.setattr(oracles, "explore", never)
    monkeypatch.setattr(oracles, "reachable_states", never)
    with pytest.raises(ValueError):
        check_program(_sb_case(), **setting)
