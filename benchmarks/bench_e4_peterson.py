"""E4 — Theorem 5.8 and invariants (4)–(10) for Peterson's algorithm.

* Exhaustive bounded exploration: mutual exclusion never violated.
* All twelve invariant instances hold at every reachable configuration.
* The relaxed-turn mutant *violates* mutual exclusion (with a concrete
  counterexample trace), and is fine under SC — the bug is
  weak-memory-specific, which is the paper's motivation in one line.
* Partial-order reduction (DESIGN.md §9, §13): the parsimonious
  ``optimal`` DPOR tier explores the same outcomes and verdicts with a
  multi-× smaller configuration count;
  recorded side by side with the unreduced run via ``--bench-json``.
"""

import pytest

from conftest import once, table
from emit_json import engine_stats_payload
from repro.casestudies.peterson import (
    PETERSON_INIT,
    mutual_exclusion_violations,
    peterson_invariants,
    peterson_program,
    peterson_relaxed_flag_read,
    peterson_relaxed_turn,
)
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.util.pretty import format_trace
from repro.verify.invariants import check_invariants


def test_mutual_exclusion_bounded(benchmark):
    result = once(
        benchmark,
        lambda: explore(
            peterson_program(once=True),
            PETERSON_INIT,
            RAMemoryModel(),
            max_events=11,
            check_config=mutual_exclusion_violations,
        ),
    )
    table(
        "E4: Peterson mutual exclusion (Theorem 5.8), bound 11",
        [
            f"configs={result.configs} transitions={result.transitions} "
            f"violations={len(result.violations)} truncated={result.truncated}"
        ],
    )
    assert result.ok
    benchmark.extra_info["configs"] = result.configs


def test_invariants_4_to_10(benchmark):
    report = once(
        benchmark,
        lambda: check_invariants(
            peterson_program(once=True),
            PETERSON_INIT,
            peterson_invariants(),
            max_events=10,
            name="peterson invariants",
        ),
    )
    rows = [report.row()] + [
        f"  {name}: {'holds' if ok else 'VIOLATED'}"
        for name, ok in report.holds_everywhere.items()
    ]
    table("E4: invariants (4)-(10)", rows)
    assert report.all_hold


def test_invariants_looping_deep(benchmark):
    """The *looping* algorithm (threads re-enter forever, Appendix D's
    pc 6 → 2) at a deeper unrolling: invariants survive re-entry —
    including invariant (10), whose whole job is the wrap-around."""
    report = once(
        benchmark,
        lambda: check_invariants(
            peterson_program(),
            PETERSON_INIT,
            peterson_invariants(),
            max_events=14,
            name="peterson-loop (bound 14)",
        ),
    )
    table("E4: looping Peterson, bound 14", [report.row()])
    assert report.all_hold
    benchmark.extra_info["configs"] = report.configs


def test_relaxed_turn_mutant_violates(benchmark):
    result = once(
        benchmark,
        lambda: explore(
            peterson_relaxed_turn(once=True),
            PETERSON_INIT,
            RAMemoryModel(),
            max_events=10,
            check_config=mutual_exclusion_violations,
            stop_on_violation=True,
        ),
    )
    trace = result.counterexample()
    table(
        "E4: relaxed-turn mutant (line 3 is a plain write)",
        [f"violations found: {len(result.violations)} (expected > 0)"]
        + ["counterexample trace:"]
        + ["  " + line for line in format_trace(trace).splitlines()],
    )
    assert not result.ok


def test_relaxed_turn_mutant_safe_under_sc(benchmark):
    result = once(
        benchmark,
        lambda: explore(
            peterson_relaxed_turn(once=True),
            PETERSON_INIT,
            SCMemoryModel(),
            check_config=mutual_exclusion_violations,
        ),
    )
    table(
        "E4: same mutant under SC",
        [f"configs={result.configs} violations={len(result.violations)} (expected 0)"],
    )
    assert result.ok


def test_por_reduction_bound12(benchmark, bench_json):
    """``optimal`` DPOR vs full exploration at bound 12: identical
    outcome set and truncation, ≥2× fewer visited configurations (the
    E4 headline of the reduction subsystem, DESIGN.md §13)."""
    from repro.litmus.registry import final_values

    model = RAMemoryModel()
    program = peterson_program(once=True)

    def runs():
        per_reduction = {}
        for reduction in ("none", "optimal"):
            per_reduction[reduction] = explore(
                program, PETERSON_INIT, model, max_events=12,
                reduction=reduction,
            )
        return per_reduction

    results = once(benchmark, runs)
    full, reduced = results["none"], results["optimal"]
    outcomes = lambda r: {  # noqa: E731 — local shorthand
        tuple(sorted(final_values(c).items())) for c in r.terminal
    }
    ratio = full.configs / reduced.configs
    table(
        "E4: Peterson bound 12, reductions vs none",
        [
            f"{label}: configs={r.configs} transitions={r.transitions} "
            f"time={r.stats.time_total * 1e3:.1f}ms"
            for label, r in results.items()
        ]
        + [
            f"reduction: {ratio:.2f}x fewer configs (optimal); engine: "
            f"{reduced.stats.summary()}",
        ],
    )
    for label, r in results.items():
        assert outcomes(full) == outcomes(r), f"{label} outcome set diverged"
        assert full.truncated == r.truncated, f"{label} truncation diverged"
    assert reduced.configs * 2 <= full.configs, (
        f"expected >=2x reduction, got {ratio:.2f}x"
    )
    bench_json.record(
        "e4_peterson_por_bound12",
        {
            "program": "peterson(once)",
            "max_events": 12,
            **{
                label: {
                    "configs": r.configs,
                    "transitions": r.transitions,
                    "stats": engine_stats_payload(r.stats),
                }
                for label, r in results.items()
            },
            "config_ratio": ratio,
            "outcome_parity": True,
        },
    )
    benchmark.extra_info["config_ratio"] = ratio


def test_por_mutant_verdict_parity(benchmark, bench_json):
    """The relaxed-turn mutant's mutual-exclusion violation survives the
    reduction: ``optimal`` finds it too, and its counterexample replays as a
    valid unreduced trace (control visibility at work)."""
    program = peterson_relaxed_turn(once=True)

    def runs():
        full = explore(
            program, PETERSON_INIT, RAMemoryModel(), max_events=10,
            check_config=mutual_exclusion_violations,
        )
        reduced = explore(
            program, PETERSON_INIT, RAMemoryModel(), max_events=10,
            check_config=mutual_exclusion_violations, reduction="optimal",
        )
        return full, reduced

    full, reduced = once(benchmark, runs)
    table(
        "E4: relaxed-turn mutant under optimal DPOR",
        [
            f"none: configs={full.configs} violations={len(full.violations)}",
            f"optimal: configs={reduced.configs} "
            f"violations={len(reduced.violations)}",
        ],
    )
    assert not full.ok and not reduced.ok
    assert reduced.configs <= full.configs
    assert reduced.counterexample() is not None
    bench_json.record(
        "e4_relaxed_turn_por_parity",
        {
            "program": "peterson_relaxed_turn(once)",
            "max_events": 10,
            "none_configs": full.configs,
            "optimal_configs": reduced.configs,
            "violated_both": True,
        },
    )


def test_relaxed_flag_read_mutant_still_safe(benchmark):
    result = once(
        benchmark,
        lambda: explore(
            peterson_relaxed_flag_read(once=True),
            PETERSON_INIT,
            RAMemoryModel(),
            max_events=10,
            check_config=mutual_exclusion_violations,
        ),
    )
    table(
        "E4: relaxed-flag-read mutant (acquire dropped at line 4)",
        [
            f"configs={result.configs} violations={len(result.violations)} "
            "(mutex survives operationally; the acquire matters for the proof)"
        ],
    )
    assert result.ok
