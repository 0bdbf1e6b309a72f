"""E8 — scalability series: operational on-the-fly vs post-hoc axiomatic.

The paper's pitch for an operational semantics is that reads are
validated *on the fly*, where the axiomatic route builds arbitrary
pre-executions and filters post hoc.  This benchmark quantifies that on
two series:

1. **Growing write-chains** (threads × statements): distinct
   configurations and wall time for (a) RA exploration and (b) PE
   exploration followed by justification of every terminal
   pre-execution.  PE pays for every bad read guess; RA never generates
   one.  The RA advantage grows with the number of read-value
   candidates — who wins and by how much is the series' shape.
2. **Loop unrolling**: Peterson state-space growth as the event bound
   increases (the "slow on larger state spaces" calibration band made
   concrete).
3. **Disjoint message-passing pairs**: three copies of Example 5.7 on
   disjoint locations at bound 14, unreduced against ``optimal`` (time,
   configs, peak RSS, each run in a fresh process) — the program family
   on which a partial-order reduction has the most to gain.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import once, table
from repro.axiomatic.justify import count_justifications
from repro.casestudies.peterson import PETERSON_INIT, peterson_program
from repro.checking.completeness import terminal_pre_executions
from repro.interp.explore import explore
from repro.interp.pe_model import PEMemoryModel
from repro.interp.ra_model import RAMemoryModel
from repro.lang.builder import assign, seq, var
from repro.lang.program import Program


def _chain_program(n_stmts: int):
    """Two threads, each writing then reading the other's variable."""
    t1 = [assign("x", i + 1) for i in range(n_stmts)] + [assign("r1", var("y"))]
    t2 = [assign("y", i + 1) for i in range(n_stmts)] + [assign("r2", var("x"))]
    program = Program.parallel(seq(*t1), seq(*t2))
    init = {"x": 0, "y": 0, "r1": 0, "r2": 0}
    return program, init


def _run_series():
    rows = []
    for n in (1, 2, 3):
        program, init = _chain_program(n)

        t0 = time.perf_counter()
        ra = explore(program, init, RAMemoryModel())
        ra_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        pe_model = PEMemoryModel.for_program(program, init)
        pe = explore(program, init, pe_model)
        prestates, _ = terminal_pre_executions(program, init)
        justs = sum(count_justifications(pi) for pi in prestates)
        pe_time = time.perf_counter() - t0

        rows.append(
            f"n={n}  RA: configs={ra.configs:>6} time={ra_time*1e3:7.1f}ms   "
            f"PE+justify: configs={pe.configs:>6} pre-exec={len(prestates):>3} "
            f"justifications={justs:>4} time={pe_time*1e3:7.1f}ms   "
            f"speedup={pe_time/ra_time:4.1f}x"
        )
        rows.append(f"      RA engine: {ra.stats.summary()}")
    return rows


def test_operational_vs_axiomatic_series(benchmark):
    rows = once(benchmark, _run_series)
    table("E8: RA on-the-fly vs PE + post-hoc justification", rows)


def test_reduction_series(benchmark, bench_json):
    """Reduction-on vs reduction-off across the Peterson bound series:
    the scalability answer of `repro.engine.por` (DESIGN.md §9),
    recorded to ``--bench-json`` for the perf trajectory."""
    from repro.litmus.registry import final_values

    def run_series():
        series = []
        for bound in (6, 8, 10, 12):
            per_bound = {"bound": bound}
            outcome_sets = {}
            for reduction in ("none", "optimal"):
                result = explore(
                    peterson_program(once=True),
                    PETERSON_INIT,
                    RAMemoryModel(),
                    max_events=bound,
                    reduction=reduction,
                )
                outcome_sets[reduction] = frozenset(
                    tuple(sorted(final_values(c).items()))
                    for c in result.terminal
                )
                per_bound[reduction] = {
                    "configs": result.configs,
                    "transitions": result.transitions,
                    "truncated": result.truncated,
                    "time_s": result.stats.time_total,
                    "pruned": result.stats.pruned,
                    "races": result.stats.races,
                }
            assert all(
                outcome_sets[label] == outcome_sets["none"]
                for label in outcome_sets
            ), "reduced outcome set diverged"
            per_bound["optimal_config_ratio"] = (
                per_bound["none"]["configs"]
                / per_bound["optimal"]["configs"]
            )
            series.append(per_bound)
        return series

    series = once(benchmark, run_series)
    rows = [
        f"bound={s['bound']:>2}  none: configs={s['none']['configs']:>6} "
        f"{s['none']['time_s'] * 1e3:7.1f}ms   "
        f"optimal: configs={s['optimal']['configs']:>6} "
        f"{s['optimal']['time_s'] * 1e3:7.1f}ms  "
        f"({s['optimal_config_ratio']:4.2f}x)"
        for s in series
    ]
    table("E8: Peterson growth, reduction on vs off", rows)
    assert series[-1]["optimal_config_ratio"] >= 2.0
    bench_json.record(
        "e8_peterson_reduction_series",
        {"program": "peterson(once)", "series": series},
    )
    benchmark.extra_info["optimal_config_ratio_bound12"] = series[-1][
        "optimal_config_ratio"
    ]


@pytest.mark.parametrize("bound", [6, 8, 10, 12], ids=lambda b: f"bound{b}")
def test_peterson_state_space_growth(benchmark, bound):
    result = once(
        benchmark,
        lambda: explore(
            peterson_program(once=True),
            PETERSON_INIT,
            RAMemoryModel(),
            max_events=bound,
        ),
    )
    table(
        f"E8: Peterson growth, bound={bound}",
        [
            f"configs={result.configs} transitions={result.transitions}",
            f"engine: {result.stats.summary()}",
        ],
    )
    benchmark.extra_info["configs"] = result.configs
    benchmark.extra_info["key_cache_hit_rate"] = result.stats.key_rate
    benchmark.extra_info["peak_frontier"] = result.stats.peak_frontier


#: One exploration of ``mp_pairs_program(n)`` at a bound, printed as JSON.
_MP_PAIRS_RUN = """
import json, sys
from repro.casestudies.message_passing import mp_pairs_init, mp_pairs_program
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.litmus.registry import final_values

n, bound, reduction = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
result = explore(
    mp_pairs_program(n), mp_pairs_init(n), RAMemoryModel(),
    max_events=bound, reduction=reduction,
)
print(json.dumps({
    "configs": result.configs,
    "time_s": result.stats.time_total,
    "peak_rss_mb": result.stats.peak_rss_kb / 1024,
    "outcomes": sorted(
        sorted(final_values(c).items()) for c in result.terminal
    ),
}))
"""


def _mp_pairs_run(n: int, bound: int, reduction: str) -> dict:
    """One run in a fresh process, so its peak RSS is its own."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _MP_PAIRS_RUN, str(n), str(bound), reduction],
        capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(out.stdout)


def test_mp_pairs_none_vs_optimal(benchmark):
    """3 disjoint Example 5.7 pairs at bound 14: ``none`` against
    ``optimal`` (ROADMAP item 4's deciding workload)."""
    runs = once(
        benchmark,
        lambda: {r: _mp_pairs_run(3, 14, r) for r in ("none", "optimal")},
    )
    table(
        "E8: 3 disjoint MP pairs, bound 14, none vs optimal",
        [
            f"{r:>8}: configs={run['configs']:>7} "
            f"time={run['time_s']:6.2f}s peak-rss={run['peak_rss_mb']:6.1f}MB"
            for r, run in runs.items()
        ],
    )
    assert runs["optimal"]["outcomes"] == runs["none"]["outcomes"]
    assert runs["optimal"]["configs"] <= runs["none"]["configs"]
    for r, run in runs.items():
        benchmark.extra_info[f"{r}_configs"] = run["configs"]
        benchmark.extra_info[f"{r}_peak_rss_mb"] = run["peak_rss_mb"]
