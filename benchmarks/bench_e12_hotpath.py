"""E12 — hot-path engine benchmark: states/sec and the phase split.

DESIGN.md §11's speedup claim made continuous: explore the E8
workloads with compact derived orders on and off
(``REPRO_NO_COMPACT``) and report states/sec, the engine's phase split
(expand / keys / checks, with the ``time_orders`` attribution), and
the A/B speedup.  Records land in ``--bench-json`` as
``BENCH_e12_hotpath.json``; CI re-runs this file and gates on a >25%
regression of *calibrated* states/sec against the committed baseline,
and on the expand/orders phase costs separately
(``benchmarks/check_regression.py`` — raw wall-clock would measure the
runner, so both sides are normalised by :func:`spin_score`, a fixed
pure-Python loop whose speed cancels machine differences).  Each case
also records ``peak_kib``, the search's ``tracemalloc`` peak in a
separate untimed pass, gated lower-is-better at the same tolerance: a
memory figure that no runner's timer can blur (DESIGN.md §12).
"""

import gc
import os
import time
import tracemalloc

import pytest

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
    ("peterson_b12_dpor", lambda: (peterson_program(once=True), PETERSON_INIT),
     12, RAMemoryModel, "dpor"),
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


class _force_representation:
    """Pin REPRO_NO_COMPACT for one A/B leg, restoring the caller's
    value (set or unset) on exit — the bench must own the switch for
    its measurements without clobbering the session env."""

    _VAR = "REPRO_NO_COMPACT"

    def __init__(self, disable_compact: bool = False):
        self.disable = disable_compact

    def __enter__(self):
        self.prior = os.environ.get(self._VAR)
        if self.disable:
            os.environ[self._VAR] = "1"
        else:
            os.environ.pop(self._VAR, None)

    def __exit__(self, *exc):
        if self.prior is None:
            os.environ.pop(self._VAR, None)
        else:
            os.environ[self._VAR] = self.prior


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
    with _force_representation():
        fast_t, fast = _best_of(3, run)
    with _force_representation(disable_compact=True):
        slow_t, slow = _best_of(3, run)
    assert (fast.configs, fast.transitions) == (slow.configs, slow.transitions), (
        "compact on/off must explore identically"
    )
    with _force_representation():
        peak_kib = _peak_kib(run)
    stats = fast.stats
    return {
        "configs": fast.configs,
        "transitions": fast.transitions,
        "time_s": fast_t,
        "time_s_no_compact": slow_t,
        "speedup": slow_t / fast_t,
        "states_per_sec": fast.configs / fast_t,
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
            f"{name:<18} configs={c['configs']:>6} "
            f"{c['time_s'] * 1e3:7.1f}ms ({c['states_per_sec']:>9.0f} st/s)  "
            f"pair-set: {c['time_s_no_compact'] * 1e3:7.1f}ms  "
            f"speedup={c['speedup']:4.2f}x  peak={c['peak_kib']:7.0f} KiB"
        )
        rows.append(
            f"{'':<18} split: expand={c['time_expand_s'] * 1e3:6.1f} "
            f"(model={c['time_model_s'] * 1e3:6.1f} "
            f"step={(c['time_expand_s'] - c['time_model_s']) * 1e3:5.1f}) "
            f"keys={c['time_keys_s'] * 1e3:6.1f} "
            f"orders={c['time_orders_s'] * 1e3:6.1f} "
            f"checks={c['time_checks_s'] * 1e3:6.1f}"
        )
    rows.append(f"spin calibration: {payload['spin_score']:.0f} ops/s")
    table("E12: hot-path engine, compact vs pair-set relations", rows)

    bench_json.record("e12_hotpath", payload)
    headline = payload["cases"]["peterson_b12"]
    benchmark.extra_info["speedup_peterson_b12"] = headline["speedup"]
    benchmark.extra_info["states_per_sec"] = headline["states_per_sec"]
    # The representation must stay decisively ahead of the pair-set
    # baseline at the largest E8 bound (measured ≈3.4x at commit time;
    # 2x leaves headroom for noisy CI runners without letting a real
    # regression through).
    assert headline["speedup"] >= 2.0


@pytest.mark.parametrize("reduction", ["none", "sleep", "dpor"])
def test_hotpath_outcome_parity_across_representations(reduction):
    """The A/B legs of every recorded case agree outcome-for-outcome —
    rechecked here under each reduction so the bench file is
    self-validating even without the tier-1 suite."""
    from repro.litmus.registry import final_values

    program, init = peterson_program(once=True), PETERSON_INIT
    with _force_representation(disable_compact=False):
        fast = explore(program, init, RAMemoryModel(), max_events=8,
                       reduction=reduction)
    with _force_representation(disable_compact=True):
        slow = explore(program, init, RAMemoryModel(), max_events=8,
                       reduction=reduction)
    outcome = lambda r: frozenset(  # noqa: E731
        tuple(sorted(final_values(c).items())) for c in r.terminal
    )
    assert (fast.configs, fast.transitions) == (slow.configs, slow.transitions)
    assert outcome(fast) == outcome(slow)
    assert fast.truncated == slow.truncated
