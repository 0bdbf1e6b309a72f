"""The trace bus (DESIGN.md §14): fast path, schema, lossless roundtrip.

The acceptance bar for the observability PR: tracing *off* must add
nothing to the exploration hot path (no records, no allocations from
the trace module), and tracing *on* must produce schema-valid JSONL
whose per-phase span totals agree with the engine's own
:class:`~repro.engine.stats.EngineStats` timers.
"""

import json
import tracemalloc

import pytest

from repro.casestudies.peterson import PETERSON_INIT, peterson_program
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.obs import trace
from repro.obs.trace import PHASES, SCHEMA, SCHEMA_NAME, parse_trace, tracer


def _explore_peterson(bound=8, reduction="optimal"):
    return explore(
        peterson_program(once=True),
        PETERSON_INIT,
        RAMemoryModel(),
        max_events=bound,
        reduction=reduction,
    )


# -- disabled fast path ----------------------------------------------------


def test_tracer_is_none_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    trace.disable()
    assert tracer() is None
    # resolved once; subsequent calls take the attribute-load fast path
    assert tracer() is None


def test_disabled_tracing_allocates_nothing_from_trace_module():
    """With tracing off, an exploration touches trace.py only for the
    one ``tracer()`` resolution — no record dicts, no JSON encoding."""
    trace.disable()
    assert tracer() is None  # resolve before measuring
    _explore_peterson(bound=6)  # warm caches (lowering, key interning)
    tracemalloc.start()
    try:
        _explore_peterson(bound=6)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    from_trace = snapshot.filter_traces(
        [tracemalloc.Filter(True, trace.__file__)]
    ).statistics("lineno")
    assert from_trace == [], [str(s) for s in from_trace]


def test_disabled_tracing_emits_no_records(tmp_path):
    trace.disable()
    result = _explore_peterson(bound=6)
    assert result.configs > 0
    assert trace._TRACER is None


# -- enabled: schema + roundtrip ------------------------------------------


@pytest.fixture
def traced_peterson(tmp_path):
    """A traced Peterson bound-8 optimal exploration, mirror attached."""
    path = tmp_path / "trace.jsonl"
    tr = trace.enable(str(path), sample=1)  # keep every node/prune record
    tr.mirror = []
    result = _explore_peterson(bound=8, reduction="optimal")
    trace.disable()
    return path, tr, result


def test_traced_run_roundtrips_losslessly(traced_peterson):
    """Every record written to disk parses back exactly as emitted."""
    path, tr, _ = traced_peterson
    parsed = parse_trace(str(path))
    assert parsed[0]["ev"] == "header"
    assert parsed[0]["schema"] == SCHEMA_NAME
    # the mirror was attached after the header; everything else matches
    # the on-disk file record for record, field for field
    assert parsed[1:] == tr.mirror
    assert len(parsed) == tr.emitted


def test_traced_run_is_schema_valid(traced_peterson):
    path, _, _ = traced_peterson
    for record in parse_trace(str(path)):
        assert record["ev"] in SCHEMA, record
        assert isinstance(record["ts"], float)
        assert isinstance(record["pid"], int)
        missing = SCHEMA[record["ev"]] - set(record)
        assert not missing, (record["ev"], missing)


def test_trace_structure_matches_exploration(traced_peterson):
    path, _, result = traced_peterson
    records = parse_trace(str(path))
    by_ev = {}
    for record in records:
        by_ev.setdefault(record["ev"], []).append(record)
    assert len(by_ev["run_start"]) == 1
    assert len(by_ev["run_end"]) == 1
    start, end = by_ev["run_start"][0], by_ev["run_end"][0]
    assert start["run"] == end["run"]
    assert start["reduction"] == "optimal"
    assert start["bound"] == 8
    assert end["configs"] == result.configs
    assert end["transitions"] == result.transitions
    assert end["truncated"] == result.truncated
    # optimal on Peterson detects races; each race record names the run
    assert by_ev["race"], "expected race records under optimal"
    assert all(r["run"] == start["run"] for r in by_ev["race"])
    # with sample=1 revisit-pruned candidates emit prune records
    prunes = by_ev.get("prune", [])
    assert prunes and len(prunes) <= result.stats.revisits
    assert all(p["kind"] == "visited" for p in prunes)


def test_span_totals_agree_with_engine_stats_within_5pct(tmp_path):
    """The ISSUE acceptance check, as a unit test: traced Peterson
    bound-12 optimal spans vs the EngineStats phase timers."""
    path = tmp_path / "t12.jsonl"
    trace.enable(str(path))
    result = _explore_peterson(bound=12, reduction="optimal")
    trace.disable()
    spans = {}
    for record in parse_trace(str(path)):
        if record["ev"] == "span":
            spans[record["name"]] = spans.get(record["name"], 0.0) + record["dur"]
    stats = result.stats
    for phase in PHASES:
        timed = getattr(stats, f"time_{phase}", stats.time_total)
        if phase == "total":
            timed = stats.time_total
        if timed <= 0.0:
            assert phase not in spans
            continue
        assert spans[phase] == pytest.approx(timed, rel=0.05), phase


def test_sampling_thins_node_records(tmp_path):
    path = tmp_path / "sampled.jsonl"
    trace.enable(str(path), sample=1000)
    result = _explore_peterson(bound=8, reduction="none")
    trace.disable()
    records = parse_trace(str(path))
    nodes = [r for r in records if r["ev"] == "node"]
    assert len(nodes) < result.configs / 10
    # structural records are never sampled away
    assert sum(r["ev"] == "run_end" for r in records) == 1


def test_parse_trace_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ev":"header"}\nnot-json\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        parse_trace(str(path))


def test_env_activation_and_sample(tmp_path, monkeypatch):
    path = tmp_path / "env.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(path))
    monkeypatch.setenv("REPRO_TRACE_SAMPLE", "4")
    trace.disable()  # force re-resolution from the environment
    tr = tracer()
    assert tr is not None and tr.sample == 4
    trace.disable()
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {**header, "ev": "header", "schema": SCHEMA_NAME, "sample": 4}


@pytest.mark.parametrize("value", ["0", "abc"])
def test_bad_env_sample_raises_instead_of_guessing(
    tmp_path, monkeypatch, value
):
    """``REPRO_TRACE_SAMPLE`` of ``0`` was clamped to 1 and ``abc``
    replaced by the default; both are errors now, on the lazy
    environment path and on ``enable`` alike."""
    path = tmp_path / "env.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(path))
    monkeypatch.setenv("REPRO_TRACE_SAMPLE", value)
    trace.disable()
    with pytest.raises(ValueError, match="REPRO_TRACE_SAMPLE"):
        tracer()
    trace.disable()
    with pytest.raises(ValueError, match="REPRO_TRACE_SAMPLE"):
        trace.enable(str(path))
    with pytest.raises(ValueError, match="at least 1"):
        trace.enable(str(path), sample=0)
    trace.disable()


def test_checker_tool_accepts_real_trace(tmp_path, traced_peterson):
    """tools/check_trace_schema.py passes on a real trace file."""
    import subprocess
    import sys
    from pathlib import Path

    path, _, _ = traced_peterson
    tool = Path(__file__).resolve().parents[1] / "tools" / "check_trace_schema.py"
    proc = subprocess.run(
        [sys.executable, str(tool), str(path), "--expect-runs", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
