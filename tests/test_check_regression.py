"""The E12 memory gate of ``benchmarks/check_regression.py``.

``peak_kib`` is a lower-is-better field: a case whose ``tracemalloc``
peak grows past the tolerance fails, whatever its throughput does.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py",
)
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


def _document(tmp_path, name, peak_kib):
    case = {"configs": 100, "states_per_sec": 1000.0}
    if peak_kib is not None:
        case["peak_kib"] = peak_kib
    path = tmp_path / name
    path.write_text(json.dumps({"records": {"e12_hotpath": {
        "spin_score": 1e7, "cases": {"case": case},
    }}}))
    return str(path)


@pytest.mark.parametrize("current,code", [(1000.0, 0), (1240.0, 0), (1260.0, 1)])
def test_peak_growth_past_tolerance_fails(tmp_path, current, code):
    base = _document(tmp_path, "base.json", 1000.0)
    cur = _document(tmp_path, "cur.json", current)
    assert check_regression.main([base, cur, "--tolerance", "0.25"]) == code


def test_a_baseline_without_the_field_is_not_gated(tmp_path):
    base = _document(tmp_path, "base.json", None)
    cur = _document(tmp_path, "cur.json", 5000.0)
    assert check_regression.main([base, cur]) == 0


def test_a_current_run_missing_the_field_fails(tmp_path):
    base = _document(tmp_path, "base.json", 1000.0)
    cur = _document(tmp_path, "cur.json", None)
    assert check_regression.main([base, cur]) == 1
