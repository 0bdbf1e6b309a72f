"""Pins the whole search shape of the ``optimal`` tier (DESIGN.md §13).

Outcome parity (``tests/test_por_parity.py``) only says the reduced
search finds the same answers; these pins say it walks the *same
search*: the exact number of configurations, transitions, expansions,
pruned threads, races, visited-prune revisits, sleep-blocked views and
the deepest spine.  A change to the explorer's bookkeeping that keeps
the algorithm must keep every number here; a change that moves one is
an algorithm change and must re-pin it on purpose.  CI runs this file
next to the parity suite.
"""

import pytest

from repro.casestudies.peterson import (
    PETERSON_INIT,
    mutual_exclusion_violations,
    peterson_program,
)
from repro.casestudies.token_ring import (
    TOKEN_INIT,
    token_ring_program,
    token_ring_violations,
)
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.interp.sra_model import SRAMemoryModel
from repro.litmus.extra import EXTRA_TESTS
from repro.litmus.suite import ALL_TESTS

MODELS = {"sc": SCMemoryModel, "ra": RAMemoryModel, "sra": SRAMemoryModel}
TESTS = {t.name: t for t in list(ALL_TESTS) + list(EXTRA_TESTS)}


def shape(result):
    """``(configs, transitions, expanded, pruned, races, revisits,
    sleep_hits, peak_frontier)`` of one ``optimal`` run."""
    s = result.stats
    return (
        result.configs, result.transitions, s.expanded, s.pruned,
        s.races, s.revisits, s.sleep_hits, s.peak_frontier,
    )


def test_ring4_b8_shape():
    result = explore(
        token_ring_program(n_threads=4), TOKEN_INIT, RAMemoryModel(),
        max_events=8, reduction="optimal",
        check_config=token_ring_violations,
    )
    assert shape(result) == (4609, 9345, 8051, 7292, 8048, 4737, 482, 17)
    assert result.ok and result.truncated


def test_peterson_b12_shape():
    result = explore(
        peterson_program(once=True), PETERSON_INIT, RAMemoryModel(),
        max_events=12, reduction="optimal",
        check_config=mutual_exclusion_violations,
    )
    assert shape(result) == (282, 326, 305, 131, 180, 45, 12, 17)
    assert result.ok


LITMUS_SHAPES = {
    ("SB", "sc"): (18, 17, 17, 7, 7, 0, 1, 6),
    ("SB", "ra"): (22, 24, 20, 9, 8, 3, 1, 6),
    ("SB", "sra"): (22, 24, 20, 9, 8, 3, 1, 6),
    ("MP+rel-acq", "sc"): (18, 17, 17, 5, 4, 0, 1, 6),
    ("MP+rel-acq", "ra"): (18, 19, 17, 5, 3, 2, 1, 6),
    ("MP+rel-acq", "sra"): (18, 19, 17, 5, 3, 2, 1, 6),
    ("IRIW+rel-acq", "sc"): (134, 133, 133, 123, 100, 0, 20, 10),
    ("IRIW+rel-acq", "ra"): (223, 399, 350, 264, 299, 177, 23, 10),
    ("IRIW+rel-acq", "sra"): (223, 399, 350, 264, 299, 177, 23, 10),
    ("2+2W", "sc"): (12, 11, 11, 2, 5, 0, 1, 4),
    ("2+2W", "ra"): (14, 19, 12, 2, 4, 6, 1, 4),
    ("2+2W", "sra"): (13, 17, 12, 2, 4, 5, 1, 4),
    ("WRC+rel-acq", "sc"): (48, 47, 47, 25, 24, 0, 4, 8),
    ("WRC+rel-acq", "ra"): (63, 83, 73, 40, 38, 21, 4, 8),
    ("WRC+rel-acq", "sra"): (63, 83, 73, 40, 38, 21, 4, 8),
    ("RMW-exclusive", "sc"): (23, 22, 22, 8, 12, 0, 0, 6),
    ("RMW-exclusive", "ra"): (24, 25, 23, 9, 12, 2, 0, 6),
    ("RMW-exclusive", "sra"): (24, 25, 23, 9, 12, 2, 0, 6),
    ("MP+await", "sc"): (10, 13, 13, 0, 2, 4, 0, 6),
    ("MP+await", "ra"): (73, 79, 72, 23, 14, 7, 6, 18),
    ("MP+await", "sra"): (73, 79, 72, 23, 14, 7, 6, 18),
    ("3-swaps", "sc"): (13, 15, 15, 0, 18, 3, 0, 3),
    ("3-swaps", "ra"): (16, 15, 15, 0, 18, 0, 0, 3),
    ("3-swaps", "sra"): (16, 15, 15, 0, 18, 0, 0, 3),
}


@pytest.mark.parametrize("name,model", sorted(LITMUS_SHAPES), ids=str)
def test_litmus_shape(name, model):
    test = TESTS[name]
    result = explore(
        test.program, test.init, MODELS[model](),
        max_events=test.max_events, reduction="optimal",
    )
    assert shape(result) == LITMUS_SHAPES[name, model]
