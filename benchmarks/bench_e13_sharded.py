"""E13 — the spill-identity run (DESIGN.md §15).

The 4-thread token ring at bound 14 estimates ~700 MB of in-memory
visited-set footprint, over the default 512 MB budget; run under
``--spill`` it must overflow to disk exactly once and still report
byte-identical results (configs, transitions, violations) to the
unbudgeted in-memory run.  The gate in ``benchmarks/check_regression.py``
fails outright when the run stops spilling or stops agreeing.

What sharding and checkpointing cost is measured, with no stall, by the
repository benchmark's ``ring4-durable`` workload (``perfbench/``).

Records land in ``--bench-json`` as ``BENCH_e13_sharded.json``.
"""

import time

from conftest import once, table
from repro.casestudies.token_ring import (
    TOKEN_INIT,
    token_ring_program,
    token_ring_violations,
)
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.litmus.registry import final_values

#: The default in-memory visited budget the spill run must exceed.
SPILL_BUDGET = 512 * 1024 * 1024

#: Token-ring size for the spill run: 4 threads at bound 14 visit
#: ~172k configurations whose estimated in-memory footprint crosses
#: the 512 MB budget mid-run.
RING_THREADS = 4
RING_BOUND = 14


def _outcome_set(result):
    """The byte-comparable terminal outcome set of an exploration."""
    return sorted(
        {tuple(sorted(final_values(c).items())) for c in result.terminal}
    )


def test_spill_identity_under_budget(benchmark, bench_json, tmp_path):
    program = token_ring_program(n_threads=RING_THREADS)

    def run_pair():
        t0 = time.perf_counter()
        plain = explore(
            program, TOKEN_INIT, RAMemoryModel(), max_events=RING_BOUND,
            check_config=token_ring_violations,
        )
        wall_plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        spilled = explore(
            program, TOKEN_INIT, RAMemoryModel(), max_events=RING_BOUND,
            check_config=token_ring_violations,
            spill_dir=str(tmp_path / "spill"), spill_max_bytes=SPILL_BUDGET,
        )
        wall_spill = time.perf_counter() - t0
        return plain, wall_plain, spilled, wall_spill

    plain, wall_plain, spilled, wall_spill = once(benchmark, run_pair)
    # the run must genuinely exceed the in-memory budget...
    assert spilled.stats.spills == 1
    assert spilled.stats.spilled_keys == spilled.configs
    # ...and spilling must not change a single observable
    assert spilled.configs == plain.configs
    assert spilled.transitions == plain.transitions
    assert _outcome_set(spilled) == _outcome_set(plain)
    assert [str(v) for v in spilled.violations] == [
        str(v) for v in plain.violations
    ]
    table(
        f"E13: token ring ({RING_THREADS} threads) bound {RING_BOUND}, "
        f"512MB visited budget",
        [
            f"in-memory: {wall_plain:6.1f}s  configs={plain.configs}",
            f"spilled:   {wall_spill:6.1f}s  "
            f"spilled_keys={spilled.stats.spilled_keys} "
            f"(identical verdicts: {len(spilled.violations)} violations)",
        ],
    )
    bench_json.record("e13_spill", {
        "threads": RING_THREADS,
        "bound": RING_BOUND,
        "budget_bytes": SPILL_BUDGET,
        "configs": spilled.configs,
        "transitions": spilled.transitions,
        "spills": spilled.stats.spills,
        "spilled_keys": spilled.stats.spilled_keys,
        "wall_s_inmem": wall_plain,
        "wall_s_spill": wall_spill,
        "violations": len(spilled.violations),
        "identical": True,
    })
