"""The textual corpus parses and every verdict matches the pinned one.

This doubles as an end-to-end exercise of the parser: each file goes
text → AST → program → exhaustive RA exploration → outcome decision.
"""

import pytest

from repro.engine.plan import SearchPlan
from repro.lang.parser import run_parsed_litmus
from repro.litmus.corpus import (
    CORPUS_EXPECTATIONS,
    corpus_names,
    load_corpus,
)


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def test_every_source_parses(corpus):
    assert set(corpus) == set(CORPUS_EXPECTATIONS)
    for name, parsed in corpus.items():
        assert parsed.program.tids
        assert parsed.init
        assert parsed.outcome_mode in ("exists", "forbidden")


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_verdict(corpus, name):
    parsed = corpus[name]
    expected_reachable, bound = CORPUS_EXPECTATIONS[name]
    reachable, result = run_parsed_litmus(
        parsed, plan=SearchPlan(max_events=bound)
    )
    assert reachable == expected_reachable, (
        f"{name}: outcome {'' if reachable else 'not '}reachable, "
        f"expected {'reachable' if expected_reachable else 'unreachable'}"
    )


def test_exists_forbidden_modes_align_with_expectations(corpus):
    """Corpus hygiene: 'exists' entries expect reachable, 'forbidden'
    entries expect unreachable."""
    for name, parsed in corpus.items():
        expected_reachable, _ = CORPUS_EXPECTATIONS[name]
        if parsed.outcome_mode == "exists":
            assert expected_reachable, name
        else:
            assert not expected_reachable, name


def test_peterson_head_swaps_serialise(corpus):
    """In the PETERSON_HEAD file, the two swaps must read each other or
    init — turn is never left at a value nobody wrote."""
    parsed = corpus["PETERSON_HEAD.litmus"]
    _, result = run_parsed_litmus(parsed)
    from repro.litmus.registry import final_values

    finals = {final_values(c)["turn"] for c in result.terminal}
    assert finals == {1, 2}  # whichever swap went second wins
