"""E11 — the verification workbench: registry sweep throughput.

Discharges every registered (proof outline × model) pair (DESIGN.md
§10) and reports obligations per second — the workbench's unit of
work.  Recorded via
``--bench-json`` so the proof-sweep cost rides the same perf trajectory
as E4/E8.
"""

import time

import pytest

from conftest import once, table
from emit_json import engine_stats_payload
from repro.verify.registry import PROOFS


def _sweep():
    reports = []
    t0 = time.perf_counter()
    for entry, model in PROOFS.pairs():
        reports.append((entry.name, model, entry.check(model)))
    return reports, time.perf_counter() - t0


def test_registry_sweep_throughput(benchmark, bench_json):
    reports, wall = once(benchmark, _sweep)
    obligations = sum(r.obligations_discharged for _, _, r in reports)
    rows = [
        f"{name:<22} [{model}] {report.row()}"
        for name, model, report in reports
    ]
    rows.append(
        f"total: {len(reports)} pairs, {obligations} obligations, "
        f"{obligations / wall:,.0f} obligations/s"
    )
    table("E11: proof-registry sweep (reduction=none)", rows)
    assert all(report.proved for _, _, report in reports)
    benchmark.extra_info["obligations"] = obligations
    bench_json.record(
        "e11_registry_sweep",
        {
            "pairs": len(reports),
            "obligations": obligations,
            "wall_s": wall,
            "per_pair": {
                f"{name}[{model}]": {
                    "configs": report.stats.configs,
                    "transitions": report.stats.transitions,
                    "obligations": report.obligations_discharged,
                    "proved": report.proved,
                    "engine": engine_stats_payload(report.stats),
                }
                for name, model, report in reports
            },
        },
    )

