"""The metrics registry (DESIGN.md §14): instruments, folding, exports."""

import json

import pytest

from repro.obs.metrics import (
    METRICS,
    Counter,
    Gauge,
    MetricsRegistry,
    SpanTimer,
    export_to,
)


def test_counter_is_monotonic():
    c = Counter("x")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_is_last_write():
    g = Gauge("x")
    g.set(7)
    g.set(3)
    assert g.value == 3


def test_span_timer_accumulates_and_times():
    t = SpanTimer("x")
    t.add(0.5)
    with t.time():
        pass
    assert t.spans == 2
    assert t.seconds >= 0.5


def test_registry_get_or_create_is_idempotent():
    reg = MetricsRegistry()
    assert reg.counter("a/b") is reg.counter("a/b")
    assert reg.gauge("a/g") is reg.gauge("a/g")
    assert reg.timer("a/t") is reg.timer("a/t")


def test_record_totals_classifies_by_name():
    reg = MetricsRegistry()
    reg.record_totals("cli", {
        "configs": 100, "peak_frontier": 12, "time_orders": 0.25,
        "wall_time": 1.0, "hit_rate": 0.93, "label": "not-a-number",
    })
    snap = reg.snapshot()
    assert snap["counters"]["cli/configs"] == 100
    assert snap["gauges"]["cli/peak_frontier"] == 12
    assert snap["timers"]["cli/time_orders"] == 0.25
    assert snap["timers"]["cli/wall_time"] == 1.0
    assert snap["gauges"]["cli/hit_rate"] == 0.93
    assert "cli/label" not in snap["counters"]


def test_to_json_builds_nested_tree():
    reg = MetricsRegistry()
    reg.counter("engine/races").inc(2)
    reg.counter("engine/keys/hits").inc(5)
    doc = reg.to_json()
    assert doc["schema"] == "repro-metrics/1"
    assert doc["counters"]["engine"]["races"] == 2
    assert doc["counters"]["engine"]["keys"]["hits"] == 5


def test_to_prometheus_format():
    reg = MetricsRegistry()
    reg.counter("engine/races").inc(2)
    reg.timer("engine/total").add(1.25)
    text = reg.to_prometheus()
    assert "# TYPE repro_engine_races counter" in text
    assert "repro_engine_races 2" in text
    assert "repro_engine_total_seconds 1.25" in text


def test_externals_are_read_at_export_time():
    reg = MetricsRegistry()
    box = {"v": 1.0}
    reg.external("legacy/timer", lambda: box["v"], kind="timer")
    assert reg.snapshot()["timers"]["legacy/timer"] == 1.0
    box["v"] = 2.5
    assert reg.snapshot()["timers"]["legacy/timer"] == 2.5
    with pytest.raises(ValueError):
        reg.external("bad", lambda: 0, kind="histogram")


def test_default_registry_exposes_legacy_timers():
    snap = METRICS.snapshot()
    assert "engine/orders_global" in snap["timers"]
    assert "engine/model_global" in snap["timers"]


def test_export_to_selects_format_by_suffix(tmp_path):
    reg = MetricsRegistry()
    reg.counter("a/b").inc(1)
    jpath, ppath = tmp_path / "m.json", tmp_path / "m.prom"
    assert export_to(str(jpath), reg) == "json"
    assert export_to(str(ppath), reg) == "prometheus"
    assert json.loads(jpath.read_text())["counters"]["a"]["b"] == 1
    assert "repro_a_b 1" in ppath.read_text()
