"""Metric names, units and the per-layer arithmetic.

End-to-end metrics come from untraced operations; per-layer metrics come
from the traced operation's spans (:mod:`perfbench.trace`) and its
summary.  A layer that does no work on a workload reports 0.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.trace import NAME_ID, NAMES, Trace, layer_totals, roots, time_within

#: (name, unit, better)
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("time_to_verdict_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("interp.expand_s", "s", "lower"),
    ("interp.step_s", "s", "lower"),
    ("interp.expand_calls", "count", "lower"),
    ("interp.transitions_per_config", "ratio", "lower"),
    ("model.transitions_s", "s", "lower"),
    ("model.calls", "count", "lower"),
    ("c11.orders_s", "s", "lower"),
    ("keys.s", "s", "lower"),
    ("keys.calls", "count", "lower"),
    ("keys.hit_rate", "ratio", "higher"),
    ("core.self_s", "s", "lower"),
    ("core.configs", "count", "lower"),
    ("core.transitions", "count", "lower"),
    ("core.states_per_s", "1/s", "higher"),
    ("core.states_per_mspin", "1/Mspin", "higher"),
    ("core.bytes_per_config", "B", "lower"),
    ("core.peak_frontier", "count", "lower"),
    ("core.unattributed_share", "ratio", "lower"),
    ("por.self_s", "s", "lower"),
    ("por.races", "count", "lower"),
    ("por.revisits", "count", "lower"),
    ("por.pruned_ratio", "ratio", "higher"),
    ("por.config_ratio", "ratio", "lower"),
    ("shard.protocol_s", "s", "lower"),
    ("shard.routed", "count", "lower"),
    ("shard.rounds", "count", "lower"),
    ("shard.key_hit_rate", "ratio", "higher"),
    ("shard.spawn_s", "s", "lower"),
    ("ckpt.writes", "count", "lower"),
    ("ckpt.write_s", "s", "lower"),
    ("ckpt.bytes", "B", "lower"),
    ("parallel.spawn_s", "s", "lower"),
    ("parallel.busy_share", "ratio", "higher"),
    ("parallel.tail_s", "s", "lower"),
    ("axiomatic.compare_s", "s", "lower"),
    ("axiomatic.compare_calls", "count", "lower"),
    ("axiomatic.validity_s", "s", "lower"),
    ("axiomatic.validity_calls", "count", "lower"),
    ("lang.lower_s", "s", "lower"),
    ("lang.lower_refused", "ratio", "lower"),
    ("fuzz.generate_s", "s", "lower"),
    ("fuzz.programs", "count", "higher"),
    ("fuzz.inconclusive_share", "ratio", "lower"),
    ("verify.check_s", "s", "lower"),
    ("verify.obligations", "count", "higher"),
    ("checks.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("host.spin_score", "1/s", "higher"),
)

UNITS: Dict[str, str] = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

#: Span names whose self time no layer explains: the benchmark's own
#: root, the engine loop's bookkeeping, and a suite job's glue.
UNATTRIBUTED = ("verdict", "core", "job")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def waterfall(traces: Sequence[Trace]) -> Tuple[Dict[str, float], float]:
    """Self time per span name outside the set-up tree, and the traced
    time they partition: the summed duration of every process's
    non-set-up root spans (for one process, the verdict's wall time)."""
    setup = NAME_ID["setup"]
    self_times = {name: 0.0 for name in NAMES}
    total = 0.0
    for trace in traces:
        selfs, masks = trace.tree()
        for i, ident in enumerate(trace.names):
            if ident != setup and not (masks[i] >> setup) & 1:
                self_times[NAMES[ident]] += selfs[i]
        total += sum(
            trace.ends[i] - trace.starts[i]
            for i in roots(trace) if trace.names[i] != setup
        )
    return self_times, total


def _shard_phase_max(traces: Sequence[Trace]) -> float:
    """The slowest shard worker's expand + keys + checks time."""
    worker = NAME_ID["shard.worker"]
    phases = []
    for trace in traces:
        if any(trace.names[i] == worker for i in roots(trace)):
            totals = layer_totals([trace])
            phases.append(sum(totals[n].total_s for n in ("interp.expand", "keys", "checks")))
    return max(phases, default=0.0)


def _parallel_shape(traces: Sequence[Trace]) -> Tuple[float, float, int, float]:
    """(batch start, batch end, workers, latest-idle gap) of the suite pool:
    the outermost ``parallel`` span and the ``job`` spans per worker."""
    ident, job = NAME_ID["parallel"], NAME_ID["job"]
    start = end = 0.0
    last_job_end: Dict[int, float] = {}
    for trace in traces:
        for i, name in enumerate(trace.names):
            if name == ident and not end:
                start, end = trace.starts[i], trace.ends[i]
            elif name == job:
                last_job_end[trace.pid] = max(last_job_end.get(trace.pid, 0.0), trace.ends[i])
    first_idle = min(last_job_end.values(), default=end)
    return start, end, len(last_job_end), end - first_idle


def span_metrics(traces: Sequence[Trace], summary: Optional[dict],
                 unreduced_configs: Optional[int]) -> Dict[str, float]:
    """Every per-layer metric the traced operation alone determines."""
    summary = summary or {"configs": 0, "transitions": 0, "stats": {}}
    stats = summary["stats"]
    totals = layer_totals(traces)
    counts: Dict[str, float] = {}
    for trace in traces:
        for key, value in trace.counts.items():
            counts[key] = counts.get(key, 0) + value
    self_times, traced_total = waterfall(traces)
    configs, transitions = summary["configs"], summary["transitions"]
    keyed = stats.get("key_hits", 0) + stats.get("key_misses", 0)
    hit_rate = _ratio(stats.get("key_hits", 0), keyed)
    sharded = totals["shard"].calls > 0
    start, end, workers, tail = _parallel_shape(traces)
    programs = summary.get("programs", 0)
    return {
        "interp.expand_s": totals["interp.expand"].total_s,
        "interp.step_s": totals["interp.expand"].self_s,
        "interp.expand_calls": totals["interp.expand"].calls,
        "interp.transitions_per_config": _ratio(transitions, configs),
        "model.transitions_s": totals["model.transitions"].total_s,
        "model.calls": totals["model.transitions"].calls,
        "c11.orders_s": stats.get("time_orders", 0.0),
        "keys.s": totals["keys"].total_s,
        "keys.calls": totals["keys"].calls,
        "keys.hit_rate": hit_rate,
        "core.self_s": totals["core"].self_s,
        "core.configs": configs,
        "core.transitions": transitions,
        "core.peak_frontier": stats.get("peak_frontier", 0),
        "core.unattributed_share": _ratio(
            sum(self_times[name] for name in UNATTRIBUTED), traced_total
        ),
        "por.self_s": totals["por"].self_s,
        "por.races": stats.get("races", 0),
        "por.revisits": stats.get("revisits", 0),
        "por.pruned_ratio": _ratio(
            stats.get("pruned", 0), stats.get("pruned", 0) + stats.get("expanded", 0)
        ),
        "por.config_ratio": _ratio(configs, unreduced_configs or 0),
        "shard.protocol_s": (
            totals["shard"].total_s - _shard_phase_max(traces) if sharded else 0.0
        ),
        "shard.routed": stats.get("shard_sent", 0),
        "shard.rounds": stats.get("shard_rounds", 0),
        "shard.key_hit_rate": hit_rate if sharded else 0.0,
        "shard.spawn_s": time_within(traces, "spawn", "shard"),
        "ckpt.writes": totals["ckpt"].calls,
        "ckpt.write_s": totals["ckpt"].total_s,
        "ckpt.bytes": counts.get("ckpt.bytes", 0),
        "parallel.spawn_s": time_within(traces, "spawn", "parallel"),
        "parallel.busy_share": _ratio(totals["job"].total_s, workers * (end - start)),
        "parallel.tail_s": tail,
        "axiomatic.compare_s": totals["axiomatic.compare"].total_s,
        "axiomatic.compare_calls": totals["axiomatic.compare"].calls,
        "axiomatic.validity_s": totals["axiomatic.validity"].total_s,
        "axiomatic.validity_calls": totals["axiomatic.validity"].calls,
        "lang.lower_s": totals["lang.lower"].total_s,
        "lang.lower_refused": _ratio(counts.get("lang.refused", 0), counts.get("lang.programs", 0)),
        "fuzz.generate_s": totals["fuzz.generate"].total_s,
        "fuzz.programs": programs,
        "fuzz.inconclusive_share": _ratio(summary.get("inconclusive", 0), programs),
        "verify.check_s": totals["verify.check"].total_s,
        "verify.obligations": summary.get("obligations", 0),
        "checks.s": totals["checks"].total_s,
    }


def run_metrics(untraced: dict, traced: dict, spin: float) -> Dict[str, float]:
    """The per-layer metrics that need the untraced operation or the
    host calibration."""
    from repro.engine.calibrate import per_mspin

    configs = (untraced.get("summary") or {}).get("configs", 0)
    wall = untraced.get("wall_s", 0.0)
    states_per_s = _ratio(configs, wall)
    grown_mb = untraced.get("peak_rss_mb", 0.0) - untraced.get("rss_before_mb", 0.0)
    return {
        "core.states_per_s": states_per_s,
        "core.states_per_mspin": per_mspin(states_per_s, spin),
        "core.bytes_per_config": _ratio(grown_mb * 2**20, configs),
        "trace.overhead_s": traced.get("wall_s", 0.0) - wall,
        "host.spin_score": spin,
    }


def waterfall_lines(self_times: Dict[str, float], total: float) -> List[str]:
    """The printed waterfall: each span's self time and share of the
    traced time, largest first."""
    lines = []
    for name, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
        if seconds > 0:
            mark = "  (unattributed)" if name in UNATTRIBUTED else ""
            lines.append(f"  {name:<20} {seconds:9.3f} s  {_ratio(seconds, total):6.1%}{mark}")
    return lines
