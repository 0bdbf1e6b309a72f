"""The metrics export (DESIGN.md §14): classification and both formats."""

import json

from repro.obs.metrics import export_to


def _export_json(tmp_path, totals):
    path = tmp_path / "m.json"
    assert export_to(str(path), totals) == "json"
    return json.loads(path.read_text())


def test_record_totals_classifies_by_name(tmp_path):
    doc = _export_json(tmp_path, {
        "configs": 100, "peak_frontier": 12, "time_orders": 0.25,
        "wall_time": 1.0, "hit_rate": 0.93, "label": "not-a-number",
        "truncated": True,
    })
    assert doc["counters"]["cli"] == {"configs": 100}
    assert doc["gauges"]["cli"] == {"hit_rate": 0.93, "peak_frontier": 12}
    assert doc["timers"]["cli"] == {"time_orders": 0.25, "wall_time": 1.0}


def test_to_json_builds_nested_tree(tmp_path):
    doc = _export_json(tmp_path, {"races": 2, "key_hits": 5})
    assert doc["schema"] == "repro-metrics/1"
    assert set(doc) == {"schema", "counters", "gauges", "timers"}
    assert doc["counters"]["cli"]["races"] == 2
    assert doc["counters"]["cli"]["key_hits"] == 5


def test_to_prometheus_format(tmp_path):
    path = tmp_path / "m.prom"
    assert export_to(str(path), {"races": 2, "time_total": 1.25}) == "prometheus"
    text = path.read_text()
    assert "# TYPE repro_cli_races counter" in text
    assert "repro_cli_races 2" in text
    assert "repro_cli_time_total_seconds 1.25" in text


def test_export_to_selects_format_by_suffix(tmp_path):
    jpath, ppath = tmp_path / "m.json", tmp_path / "m.prom"
    assert export_to(str(jpath), {"configs": 1}) == "json"
    assert export_to(str(ppath), {"configs": 1}) == "prometheus"
    assert json.loads(jpath.read_text())["counters"]["cli"]["configs"] == 1
    assert "repro_cli_configs 1" in ppath.read_text()
