"""CI regression gate over the benchmark JSON documents.

Usage::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json \
        [--tolerance 0.25]

Compares the records two ``repro-bench/1`` documents share (the
committed ``BENCH_*.json`` baseline vs a fresh CI run) and exits 1 on a
regression beyond ``--tolerance`` (default 25%).  Two record families
are gated:

**``e12_hotpath``** — calibrated throughput.  Raw states/sec would
measure the runner, not the engine: CI machines differ from the machine
the baseline was committed on.  Both documents therefore carry a
``spin_score`` — iterations/sec of a fixed pure-Python loop recorded in
the same session — and the gate compares ``states_per_sec /
spin_score``, in which machine speed cancels.  The engine's two
optimised phases are
additionally gated *separately*: ``expand`` (successor expansion — the
lowered step tables' target, DESIGN.md §12) and ``orders``
(derived-order maintenance — the compact representation's target,
§11).  Each phase's calibrated cost per
configuration (``time * spin_score / configs``, i.e. spin-equivalent
iterations per explored state) must not grow past tolerance, so a
regression in one layer cannot hide behind an improvement in the other.
Phases under 5 ms in the baseline are skipped — at that scale the ratio
is timer noise.  Each case's ``peak_kib`` (the search's ``tracemalloc``
peak, recorded in an untimed pass) is gated lower-is-better: it must not
grow past tolerance.  It needs no calibration — it counts bytes, not
seconds — so it holds even on a runner whose timer is too noisy to
gate.

**``e8_peterson_reduction_series``** — reduction quality.  Config
counts are deterministic (machine-independent), so the per-bound
``optimal_config_ratio`` column is gated directly: the
how-much-smaller-than-unreduced ratio of the pruning tier must not fall
below the committed baseline beyond tolerance.  A change that quietly
weakens the parsimonious explorer (DESIGN.md §13) therefore fails CI
even while outcome parity still holds.

A record family present in only one of the two documents is skipped;
the gate fails if the documents share no gated record at all.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return document.get("records", {})


def check_hotpath(base_record, cur_record, tolerance, failures) -> None:
    """Gate the calibrated e12 hot-path throughput and phase costs."""
    base_score = base_record.get("spin_score") or 0.0
    cur_score = cur_record.get("spin_score") or 0.0
    if base_score <= 0.0 or cur_score <= 0.0:
        failures.append(
            "e12_hotpath: spin_score missing or zero; cannot calibrate"
        )
        return
    base_cases = base_record.get("cases", {})
    cur_cases = cur_record.get("cases", {})
    print(f"{'case':<20} {'baseline':>12} {'current':>12} {'ratio':>7}  (calibrated st/s)")
    for name, base in sorted(base_cases.items()):
        cur = cur_cases.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        base_norm = base["states_per_sec"] / base_score
        cur_norm = cur["states_per_sec"] / cur_score
        if base_norm <= 0.0:
            failures.append(f"{name}: baseline throughput is zero")
            continue
        ratio = cur_norm / base_norm
        flag = ""
        if ratio < 1.0 - tolerance:
            failures.append(
                f"{name}: calibrated throughput fell to {ratio:.2f}x of the "
                f"baseline (tolerance {1.0 - tolerance:.2f}x)"
            )
            flag = "  ** REGRESSION **"
        print(f"{name:<20} {base_norm:>12.4f} {cur_norm:>12.4f} {ratio:>6.2f}x{flag}")
        base_peak = base.get("peak_kib")
        if base_peak is not None:
            cur_peak = cur.get("peak_kib")
            if cur_peak is None:
                failures.append(f"{name}: peak_kib missing from current run")
            elif cur_peak > base_peak * (1.0 + tolerance):
                failures.append(
                    f"{name}: tracemalloc peak grew to {cur_peak:.0f} KiB "
                    f"({cur_peak / base_peak:.2f}x of the baseline "
                    f"{base_peak:.0f} KiB, tolerance {1.0 + tolerance:.2f}x)"
                )
        for phase in ("expand", "orders"):
            base_t = base.get(f"time_{phase}_s")
            cur_t = cur.get(f"time_{phase}_s")
            if base_t is None or cur_t is None or base_t < 0.005:
                continue
            if not base.get("configs") or not cur.get("configs"):
                continue
            base_cost = base_t * base_score / base["configs"]
            cur_cost = cur_t * cur_score / cur["configs"]
            if base_cost <= 0.0:
                continue
            cost_ratio = cur_cost / base_cost
            if cost_ratio > 1.0 + tolerance:
                failures.append(
                    f"{name}: calibrated {phase} cost grew to "
                    f"{cost_ratio:.2f}x of the baseline "
                    f"(tolerance {1.0 + tolerance:.2f}x)"
                )


def check_reduction_series(base_record, cur_record, tolerance, failures) -> None:
    """Gate the per-bound reduction config ratios of the E8 series."""
    base_by_bound = {s["bound"]: s for s in base_record.get("series", [])}
    cur_by_bound = {s["bound"]: s for s in cur_record.get("series", [])}
    print(f"{'series':<28} {'baseline':>9} {'current':>9}  (configs ratio vs none)")
    for bound, base in sorted(base_by_bound.items()):
        cur = cur_by_bound.get(bound)
        if cur is None:
            failures.append(f"reduction series: bound {bound} missing from current run")
            continue
        column = "optimal_config_ratio"
        base_ratio = base.get(column)
        cur_ratio = cur.get(column)
        if base_ratio is None:
            continue  # older baseline without this tier
        if cur_ratio is None:
            failures.append(
                f"reduction series bound {bound}: {column} missing "
                "from current run"
            )
            continue
        flag = ""
        if cur_ratio < base_ratio * (1.0 - tolerance):
            failures.append(
                f"reduction series bound {bound}: {column} fell to "
                f"{cur_ratio:.2f}x (baseline {base_ratio:.2f}x, "
                f"tolerance {tolerance:.0%})"
            )
            flag = "  ** REGRESSION **"
        print(
            f"bound {bound:>2} {column:<19} {base_ratio:>8.2f}x "
            f"{cur_ratio:>8.2f}x{flag}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="maximum allowed fractional regression (default 0.25)",
    )
    args = parser.parse_args(argv)

    base = load_document(args.baseline)
    cur = load_document(args.current)

    failures = []
    gated = 0
    if "e12_hotpath" in base and "e12_hotpath" in cur:
        gated += 1
        check_hotpath(
            base["e12_hotpath"], cur["e12_hotpath"], args.tolerance, failures
        )
    if (
        "e8_peterson_reduction_series" in base
        and "e8_peterson_reduction_series" in cur
    ):
        gated += 1
        check_reduction_series(
            base["e8_peterson_reduction_series"],
            cur["e8_peterson_reduction_series"],
            args.tolerance,
            failures,
        )
    if not gated:
        print(
            f"{args.baseline} and {args.current} share no gated record "
            "(e12_hotpath or e8_peterson_reduction_series)",
            file=sys.stderr,
        )
        return 1
    if failures:
        print()
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("\nno regression beyond tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
