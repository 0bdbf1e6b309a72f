"""Shrinker tests, including the acceptance scenario: an intentionally
broken model is caught and delta-debugged to a ≤3-thread reproducer."""

from fuzz_helpers import BrokenSRA
from repro.fuzz import oracles
from repro.fuzz.generator import PROFILES, generate_case, program_vars
from repro.fuzz.oracles import check_program
from repro.fuzz.shrink import shrink_case
from repro.lang.parser import parse_litmus


def _still_diverges(case) -> bool:
    return check_program(case).divergence == "refinement"


def test_broken_model_is_caught_and_shrunk_small(monkeypatch):
    """The acceptance criterion: a 4-thread divergent case shrinks to a
    reproducer with at most 3 threads (here: one thread, one store)."""
    monkeypatch.setitem(oracles.ORACLE_MODELS, "sra", BrokenSRA)
    case = generate_case(11, 0, PROFILES["wide"])
    assert case.n_threads == 4
    report = check_program(case)
    assert report.divergence == "refinement"

    shrunk, attempts = shrink_case(case, _still_diverges)
    assert shrunk.n_threads <= 3
    assert attempts > 0
    assert shrunk.name.endswith("_min")
    assert shrunk.history  # provenance of the applied transformations
    # the minimised case still exhibits the divergence
    assert _still_diverges(shrunk)


def test_shrunk_case_stays_well_formed(monkeypatch):
    monkeypatch.setitem(oracles.ORACLE_MODELS, "sra", BrokenSRA)
    case = generate_case(11, 0, PROFILES["wide"])
    shrunk, _ = shrink_case(case, _still_diverges)
    # init still covers every used variable, and the reproducer text
    # round-trips through the parser (it must be replayable from disk)
    assert program_vars(shrunk.program) <= set(shrunk.init)
    reparsed = parse_litmus(shrunk.to_litmus())
    assert reparsed.program == shrunk.program
    assert dict(reparsed.init) == dict(shrunk.init)


def test_shrink_reaches_a_local_minimum(monkeypatch):
    monkeypatch.setitem(oracles.ORACLE_MODELS, "sra", BrokenSRA)
    case = generate_case(11, 0, PROFILES["wide"])
    shrunk, _ = shrink_case(case, _still_diverges)
    from repro.fuzz.shrink import _candidates

    assert all(not _still_diverges(c) for c in _candidates(shrunk))


def test_shrink_respects_attempt_budget(monkeypatch):
    monkeypatch.setitem(oracles.ORACLE_MODELS, "sra", BrokenSRA)
    case = generate_case(11, 0, PROFILES["wide"])
    _, attempts = shrink_case(case, _still_diverges, max_attempts=2)
    assert attempts <= 2


def test_shrink_of_passing_case_is_identity():
    case = generate_case(0, 0)
    shrunk, attempts = shrink_case(
        case, lambda c: check_program(c).divergence is not None
    )
    # nothing fails, so nothing is accepted: the case comes back as-is
    assert shrunk is case
    assert attempts > 0
