"""Tests of the benchmark's own harness (no exploration runs here)."""

import dataclasses
import json
import multiprocessing
import re
from array import array
from pathlib import Path

import pytest

from perfbench import layers, trace, workloads
from perfbench.trace import NAME_ID, SpanRecorder, Trace

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _trace(pid, spans, counts=None):
    """A Trace from (name, parent, start, end) tuples in start order."""
    return Trace(
        pid,
        array("H", [NAME_ID[name] for name, _, _, _ in spans]),
        array("l", [parent for _, parent, _, _ in spans]),
        array("d", [start for _, _, start, _ in spans]),
        array("d", [end for _, _, _, end in spans]),
        counts or {},
    )


SYNTHETIC = [
    ("verdict", -1, 0.0, 10.0),  # 0
    ("core", 0, 1.0, 9.0),  # 1
    ("interp.expand", 1, 2.0, 5.0),  # 2
    ("model.transitions", 2, 3.0, 4.0),  # 3
    ("keys", 1, 6.0, 7.0),  # 4
    ("interp.expand", 1, 7.5, 8.0),  # 5
    ("core", 1, 8.2, 8.8),  # 6: a nested search inside the outer one
]


def test_self_times_subtract_exactly_the_children():
    selfs, masks = trace.span_tree(_trace(1, SYNTHETIC))
    assert selfs == pytest.approx([2.0, 2.9, 2.0, 1.0, 1.0, 0.5, 0.6])
    assert masks[3] == (1 << NAME_ID["verdict"]) | (1 << NAME_ID["core"]) | (
        1 << NAME_ID["interp.expand"]
    )


def test_layer_totals_count_outermost_spans_once():
    totals = trace.layer_totals([_trace(1, SYNTHETIC)])
    assert totals["interp.expand"].total_s == pytest.approx(3.5)
    assert totals["interp.expand"].self_s == pytest.approx(2.5)
    assert totals["interp.expand"].calls == 2
    # the nested core span is inside the outer one: counted once
    assert totals["core"].total_s == pytest.approx(8.0)
    assert totals["core"].calls == 1
    assert totals["core"].self_s == pytest.approx(3.5)


def test_waterfall_partitions_the_root_and_skips_setup():
    spans = [("setup", -1, -3.0, -1.0), ("lang.lower", 0, -2.5, -2.0)]
    spans += [(n, p + 2 if p >= 0 else -1, s, e) for n, p, s, e in SYNTHETIC]
    self_times, total = layers.waterfall([_trace(1, spans)])
    assert total == pytest.approx(10.0)
    assert sum(self_times.values()) == pytest.approx(10.0)
    assert self_times["setup"] == self_times["lang.lower"] == 0.0
    metrics = layers.span_metrics(
        [_trace(1, spans)], {"configs": 4, "transitions": 6, "stats": {}}, 8
    )
    # verdict 2.0 + outer core 2.9 + inner core 0.6 explain nothing
    assert metrics["core.unattributed_share"] == pytest.approx(0.55)
    assert metrics["interp.step_s"] == pytest.approx(2.5)
    assert metrics["lang.lower_s"] == pytest.approx(0.5)
    assert metrics["por.config_ratio"] == pytest.approx(0.5)


def test_pool_shape_from_worker_traces():
    parent = _trace(1, [("verdict", -1, 0.0, 11.0), ("parallel", 0, 0.0, 10.0),
                        ("spawn", 1, 0.0, 0.25)])
    first = _trace(11, [("job", -1, 1.0, 4.0), ("job", -1, 4.0, 9.0)])
    second = _trace(12, [("job", -1, 1.0, 6.0)])
    metrics = layers.span_metrics(
        [parent, first, second], {"configs": 0, "transitions": 0, "stats": {}}, None
    )
    assert metrics["parallel.busy_share"] == pytest.approx(13.0 / 20.0)
    assert metrics["parallel.tail_s"] == pytest.approx(4.0)
    assert metrics["parallel.spawn_s"] == pytest.approx(0.25)
    assert metrics["shard.spawn_s"] == 0.0


def test_recorder_links_nested_calls_to_their_parent():
    rec = SpanRecorder()
    inner = rec.wrap("keys", lambda x: x + 1)
    assert rec.run("core", lambda: inner(1) + inner(2)) == 5
    snap = rec.snapshot()
    assert [trace.NAMES[i] for i in snap.names] == ["core", "keys", "keys"]
    assert list(snap.parents) == [-1, 0, 0]
    assert all(end >= start for start, end in zip(snap.starts, snap.ends))


def _forked_worker(rec):
    rec.after_fork_in_child()
    rec.run("job", rec.wrap("fuzz.generate", lambda: None))


def test_forked_worker_spills_its_spans(tmp_path):
    rec = SpanRecorder(str(tmp_path))
    rec.run("verdict", lambda: None)
    worker = multiprocessing.get_context("fork").Process(target=_forked_worker, args=(rec,))
    worker.start()
    worker.join(timeout=30)
    assert worker.exitcode == 0
    (spilled,) = trace.load_spilled(str(tmp_path))
    assert spilled.pid == worker.pid
    assert [trace.NAMES[i] for i in spilled.names] == ["job", "fuzz.generate"]
    assert len(rec.snapshot()) == 1  # the parent's own buffer is untouched


def test_metric_names_and_units_are_well_formed_and_match_the_manifest():
    for name, unit, better in layers.END_TO_END + layers.PER_LAYER:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("higher", "lower")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = lambda section: [  # noqa: E731
        (m["name"], m["unit"], m["better"]) for m in manifest[section]
    ]
    assert rows("end_to_end") == list(layers.END_TO_END)
    assert rows("per_layer") == list(layers.PER_LAYER)
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in manifest["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()
    ]


def _ring_summary(**changes):
    summary = {
        "configs": 72194, "transitions": 189815, "violations": 0,
        "truncated": True, "outcomes": [[["token", 1]]], "stats": {},
    }
    summary.update(changes)
    return summary


def test_wrong_pinned_count_is_a_failed_operation_not_an_exception():
    pins = dict(workloads.PINS["ring4-bfs"], configs=72193)
    workload = dataclasses.replace(
        workloads.WORKLOADS["ring4-bfs"],
        verdict=lambda inputs: _ring_summary(),
        check=workloads.ring_check(pins),
    )
    summary, failures, wall = workloads.run_checked(workload, None)
    assert summary == _ring_summary()
    assert failures == ["configs 72194 != pinned 72193"]
    assert wall >= 0.0


def test_pinned_counts_pass_and_violations_fail():
    check = workloads.WORKLOADS["ring4-bfs"].check
    assert check(_ring_summary()) == []
    assert check(_ring_summary(violations=2)) == ["2 mutual-exclusion violations"]


def test_crashing_call_is_a_failed_operation():
    def crash(inputs):
        raise RuntimeError("worker died")

    workload = dataclasses.replace(workloads.WORKLOADS["campaign"], verdict=crash)
    summary, failures, _ = workloads.run_checked(workload, None)
    assert summary is None
    assert "RuntimeError: worker died" in failures[0]


def test_campaign_check_reports_every_kind_of_failure():
    check = workloads.WORKLOADS["campaign"].check
    clean = {"jobs": 3, "results": 3, "mismatches": [], "crashes": 0,
             "divergences": 0, "obligations": workloads.PINS["campaign"]["obligations"]}
    assert check(clean) == []
    broken = dict(clean, results=2, mismatches=["SB [ra]"], crashes=1,
                  divergences=4, obligations=1)
    assert len(check(broken)) == 5


def test_workload_seed_reaches_only_the_generated_inputs():
    first, second = workloads.campaign_jobs(1), workloads.campaign_jobs(2)
    differing = [(a, b) for a, b in zip(first, second) if a != b]
    assert len(first) == len(second) and differing
    for a, b in differing:
        assert (a.kind, a.profile, a.seed, b.seed) == ("fuzz", "small", 1, 2)
        assert dataclasses.replace(a, seed=2) == b
    wide = [job for job in first if job.kind == "fuzz" and job.profile == "wide"]
    assert {job.seed for job in wide} == {workloads.CORPUS_SEED}


def test_ring_inputs_ignore_the_seed(tmp_path):
    for name in ("ring4-bfs", "ring4-optimal"):
        setup = workloads.WORKLOADS[name].setup
        a, b = setup(1, str(tmp_path)), setup(2, str(tmp_path))
        assert (a.program, a.kwargs) == (b.program, b.kwargs)
