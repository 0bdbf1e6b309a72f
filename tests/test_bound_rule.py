"""The one event-bound rule (DESIGN.md §5), pinned across every explorer.

At the bound a configuration expands only its τ steps; every non-silent
pending step is cut and the run is ``truncated``.  A model that records
no events (SC) is never at the bound.  Two contracts:

* under ``reduction="none"`` the registry and the case studies keep
  their ``(configs, transitions, truncated, verdict, outcome set)`` at
  every small bound — the literals in :mod:`bound_rule_pins` were
  computed before the rule was shared, so the rule changed no
  unreduced result;
* every reduction tier, and the sharded search, reports the outcome set
  and truncation flag of ``"none"`` — the truncation-parity contract the
  POR tiers are held to (DESIGN.md §9, §13).
"""

import hashlib
from functools import lru_cache

import pytest

from bound_rule_pins import BOUNDS, PE_BOUNDS, PINS
from repro.casestudies.peterson import PETERSON_INIT, peterson_program
from repro.engine.parallel import CASE_STUDIES, _case_study_setup
from repro.interp.explore import explore
from repro.interp.pe_model import PEMemoryModel
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.interp.sra_model import SRAMemoryModel
from repro.litmus.extra import EXTRA_TESTS
from repro.litmus.registry import final_values
from repro.litmus.suite import ALL_TESTS

MODELS = {"sc": SCMemoryModel, "ra": RAMemoryModel, "sra": SRAMemoryModel}
TIERS = ("optimal",)


def _subjects():
    """``pin key -> (program, init, check hook, model factory, bound)``."""
    out = {}
    for test in list(ALL_TESTS) + list(EXTRA_TESTS):
        for name, factory in MODELS.items():
            for bound in BOUNDS:
                out[f"litmus:{test.name}:{name}:{bound}"] = (
                    test.program, test.init, None, factory, bound,
                )
        for bound in PE_BOUNDS:
            out[f"litmus:{test.name}:pe:{bound}"] = (
                test.program, test.init, None,
                lambda t=test: PEMemoryModel.for_program(t.program, t.init),
                bound,
            )
    for study in sorted(CASE_STUDIES):
        program, init, check, _ = _case_study_setup(study)
        for name, factory in MODELS.items():
            for bound in BOUNDS:
                out[f"case:{study}:{name}:{bound}"] = (
                    program, init, check, factory, bound,
                )
    return out


SUBJECTS = _subjects()


def _outcome(config):
    """Final memory of a terminal configuration; for pre-executions,
    which have no final memory, the multiset of its program events."""
    state = config.state
    if hasattr(state, "init_writes"):
        return tuple(sorted(
            (e.tid, str(e.action)) for e in state.events if not e.is_init
        ))
    return tuple(sorted(final_values(config).items()))


def outcome_set(result):
    return frozenset(_outcome(c) for c in result.terminal)


def _digest(outcomes) -> str:
    return hashlib.sha256(repr(sorted(outcomes)).encode()).hexdigest()[:12]


@lru_cache(maxsize=None)
def _run(key, reduction):
    program, init, check, factory, bound = SUBJECTS[key]
    return explore(
        program, init, factory(), max_events=bound, check_config=check,
        reduction=reduction,
    )


def test_pins_cover_the_grid():
    assert sorted(PINS) == sorted(SUBJECTS)


def test_unreduced_results_match_the_pins():
    """(configs, transitions, truncated, verdict, outcome set) per case;
    outcome sets are pinned by size and a SHA-256 prefix of their
    sorted ``repr``."""
    drift = []
    for key in sorted(SUBJECTS):
        result = _run(key, "none")
        outcomes = outcome_set(result)
        got = (
            result.configs, result.transitions, result.truncated, result.ok,
            len(outcomes), _digest(outcomes),
        )
        if got != PINS[key]:
            drift.append(f"{key}: {got} != {PINS[key]}")
    assert not drift, "\n".join(drift)


@pytest.mark.parametrize("reduction", TIERS)
def test_every_tier_matches_the_unreduced_search(reduction):
    drift = []
    for key in sorted(SUBJECTS):
        full, reduced = _run(key, "none"), _run(key, reduction)
        if (
            reduced.truncated != full.truncated
            or reduced.ok != full.ok
            or outcome_set(reduced) != outcome_set(full)
        ):
            drift.append(key)
    assert not drift, drift


@pytest.mark.parametrize(
    "reduction,shards",
    [(r, 1) for r in ("none",) + TIERS] + [("none", 2)],
)
def test_sc_is_never_cut_at_bound_zero(reduction, shards):
    """SC records no events, so ``max_events=0`` cuts nothing under any
    explorer: Peterson runs to completion everywhere.  (The POR tiers and
    the sharded search used to cut every non-silent step there —
    1 config, no outcome, ``truncated`` — while the full search did not.)
    The sharded search runs unreduced only."""
    result = explore(
        peterson_program(once=True), PETERSON_INIT, SCMemoryModel(),
        max_events=0, reduction=reduction, shards=shards,
    )
    assert result.truncated is False
    assert len(outcome_set(result)) == 2
    if reduction == "none":
        assert result.configs == 102
