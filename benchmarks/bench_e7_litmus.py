"""E7 — the litmus table: RA verdicts vs SC verdicts.

Regenerates the fragment's behavioural fingerprint (Example 3.6's
discussion and §1's framing): store buffering / IRIW / 2+2W weak
behaviours allowed, message passing repaired by release/acquire, load
buffering excluded by NoThinAir, coherence shapes forbidden, update
atomicity enforced.  Every verdict must match the expected column.
"""

import pytest

from conftest import once, table
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.litmus.registry import run_litmus, run_suite
from repro.litmus.suite import ALL_TESTS


def test_full_suite_table(benchmark):
    outcomes = once(benchmark, lambda: run_suite(ALL_TESTS))
    table("E7: litmus suite (RA vs SC)", [o.row() for o in outcomes])
    assert all(o.verdict_matches for o in outcomes)
    benchmark.extra_info["tests"] = len(outcomes)


@pytest.mark.parametrize(
    "name", ["SB", "MP+rel-acq", "IRIW+rel-acq", "LB", "RMW-exclusive"]
)
def test_individual_ra(benchmark, name):
    test = next(t for t in ALL_TESTS if t.name == name)
    outcome = once(benchmark, lambda: run_litmus(test, RAMemoryModel()))
    assert outcome.verdict_matches
    benchmark.extra_info["configs"] = outcome.result.configs


def test_sc_is_faster_but_weaker(benchmark):
    """SC explores fewer configurations than RA on the same program —
    the price of weak memory, quantified."""
    def run():
        rows = []
        for t in ALL_TESTS:
            ra = run_litmus(t, RAMemoryModel())
            sc = run_litmus(t, SCMemoryModel())
            rows.append((t.name, ra.result.configs, sc.result.configs))
        return rows

    rows = once(benchmark, run)
    table(
        "E7: state-space size, RA vs SC",
        [f"{n:<22} RA={a:>6}  SC={s:>6}  ratio={a/s:4.1f}x" for n, a, s in rows],
    )
    assert all(a >= s for _, a, s in rows)
