"""E12 — hot-path engine benchmark: states/sec and the phase split.

Explore the E8 workloads and report states/sec and the engine's phase
split (expand / keys / checks, with the ``time_orders`` attribution of
the compact derived orders, DESIGN.md §11).  Records land in
``--bench-json`` as ``BENCH_e12_hotpath.json``; CI re-runs this file
and gates on a >25% regression of *calibrated* states/sec against the
committed baseline, and on the expand/orders phase costs separately
(``benchmarks/check_regression.py`` — raw wall-clock would measure the
runner, so both sides are normalised by :func:`spin_score`, a fixed
pure-Python loop whose speed cancels machine differences).  Each case
also records ``peak_kib``, the search's ``tracemalloc`` peak in a
separate untimed pass, gated lower-is-better at the same tolerance: a
memory figure that no runner's timer can blur (DESIGN.md §12).
"""

import gc
import time
import tracemalloc

from conftest import once, table
from repro.casestudies.peterson import PETERSON_INIT, peterson_program
from repro.engine.calibrate import spin_score  # noqa: F401 - re-exported
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sra_model import SRAMemoryModel
from repro.lang.builder import assign, seq, var
from repro.lang.program import Program

#: (name, (program, init) factory, bound, model factory, reduction)
CASES = [
    ("peterson_b12", lambda: (peterson_program(once=True), PETERSON_INIT),
     12, RAMemoryModel, "none"),
    ("peterson_b12_optimal",
     lambda: (peterson_program(once=True), PETERSON_INIT),
     12, RAMemoryModel, "optimal"),
    ("chain3_ra", lambda: _chain_program(3), None, RAMemoryModel, "none"),
    ("chain3_sra", lambda: _chain_program(3), None, SRAMemoryModel, "none"),
]


def _chain_program(n_stmts: int):
    """The E8 write-chain shape (two threads, write then read across)."""
    t1 = [assign("x", i + 1) for i in range(n_stmts)] + [assign("r1", var("y"))]
    t2 = [assign("y", i + 1) for i in range(n_stmts)] + [assign("r2", var("x"))]
    program = Program.parallel(seq(*t1), seq(*t2))
    init = {"x": 0, "y": 0, "r1": 0, "r2": 0}
    return program, init


def _best_of(n, fn):
    """Best wall time of ``n`` runs, *with the matching result* — the
    recorded phase split must come from the same run as ``time_s``."""
    best_t = None
    best_result = None
    for _ in range(n):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if best_t is None or elapsed < best_t:
            best_t = elapsed
            best_result = result
    return best_t, best_result


def _peak_kib(fn) -> float:
    """The Python-heap peak of one call of ``fn``, in KiB.

    Traced in its own pass — tracing slows allocation severalfold, so it
    must never overlap a timed run.  The timed runs before it have
    warmed the program-side caches, so the peak is the search's own
    footprint: states, keys, parents and memos.
    """
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024


def _run_case(name, case_factory, bound, model_factory, reduction):
    program, init = case_factory()
    run = lambda: explore(  # noqa: E731 - benchmark closure
        program, init, model_factory(), max_events=bound, reduction=reduction
    )
    time_s, result = _best_of(3, run)
    peak_kib = _peak_kib(run)
    stats = result.stats
    return {
        "configs": result.configs,
        "transitions": result.transitions,
        "time_s": time_s,
        "states_per_sec": result.configs / time_s,
        "time_expand_s": stats.time_expand,
        "time_model_s": stats.time_model,
        "time_keys_s": stats.time_keys,
        "time_orders_s": stats.time_orders,
        "time_checks_s": stats.time_checks,
        "peak_kib": peak_kib,
    }


def test_hotpath_states_per_sec(benchmark, bench_json):
    def run_all():
        # Calibrate before AND after the measured cases and keep the
        # max: a neighbour stealing CPU mid-session depresses whichever
        # sample it overlaps, and the regression gate divides by this —
        # under-reading it would flag innocent PRs on shared runners.
        score = spin_score()
        cases = {}
        for name, factory, bound, model_factory, reduction in CASES:
            cases[name] = _run_case(name, factory, bound, model_factory,
                                    reduction)
        score = max(score, spin_score())
        return {"spin_score": score, "cases": cases}

    payload = once(benchmark, run_all)
    rows = []
    for name, c in payload["cases"].items():
        rows.append(
            f"{name:<20} configs={c['configs']:>6} "
            f"{c['time_s'] * 1e3:7.1f}ms ({c['states_per_sec']:>9.0f} st/s)  "
            f"peak={c['peak_kib']:7.0f} KiB"
        )
        rows.append(
            f"{'':<20} split: expand={c['time_expand_s'] * 1e3:6.1f} "
            f"(model={c['time_model_s'] * 1e3:6.1f} "
            f"step={(c['time_expand_s'] - c['time_model_s']) * 1e3:5.1f}) "
            f"keys={c['time_keys_s'] * 1e3:6.1f} "
            f"orders={c['time_orders_s'] * 1e3:6.1f} "
            f"checks={c['time_checks_s'] * 1e3:6.1f}"
        )
    rows.append(f"spin calibration: {payload['spin_score']:.0f} ops/s")
    table("E12: hot-path engine", rows)

    bench_json.record("e12_hotpath", payload)
    headline = payload["cases"]["peterson_b12"]
    benchmark.extra_info["states_per_sec"] = headline["states_per_sec"]
