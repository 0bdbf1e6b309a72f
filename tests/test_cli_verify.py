"""Tests for ``python -m repro verify`` (the verification workbench CLI)."""

import json
import re

import pytest

from repro.cli import main

MP_TEXT = """
C11 MPfile
{ d = 0; f = 0; r = 0 }
P1: d := 5; f :=R 1
P2: 1: while (!(f^A)) { }; 2: r := d
"""

GOOD_SPEC = """
OUTLINE = (
    ProofOutline()
    .at("consumer sees payload", {2: (2,)}, DV("d", 2, 5))
)
"""

#: Deliberately wrong: claims the payload is 6.
BROKEN_SPEC = """
OUTLINE = (
    ProofOutline()
    .everywhere("d never becomes 5", Not_(ValEq("d", 5)))
)
"""

FUNC_SPEC = """
def outline():
    return ProofOutline().at("consumer sees payload", {2: (2,)}, DV("d", 2, 5))
"""


@pytest.fixture
def mp_file(tmp_path):
    path = tmp_path / "mp.litmus"
    path.write_text(MP_TEXT)
    return str(path)


def spec_file(tmp_path, text, name="spec.py"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def one_error_line(capsys) -> str:
    """The one ``repro verify: error: ...`` line a usage error prints
    on stderr (nothing on stdout, no traceback)."""
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro verify: error: ")
    assert captured.out == ""
    return lines[0]


# ----------------------------------------------------------------------
# Named case studies
# ----------------------------------------------------------------------


def test_verify_named_case_study(capsys):
    assert main(["verify", "peterson"]) == 0
    out = capsys.readouterr().out
    assert "peterson [ra]" in out
    assert "(4) turn update-only" in out
    assert "obligations" in out and "OK" in out


def test_verify_multiple_names_and_models(capsys):
    assert main(["verify", "dekker", "message-passing-val"]) == 0
    out = capsys.readouterr().out
    assert "dekker [sc]" in out
    # message-passing-val is pinned to both models; both must report
    assert "message-passing-val [ra]" in out
    assert "message-passing-val [sc]" in out


def test_verify_model_override_refutes_dekker_under_ra(capsys):
    assert main(["verify", "dekker", "--model", "ra"]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "preservation of mutual exclusion failed across" in out
    assert "by thread" in out  # the offending transition is localised


def test_verify_unknown_name(capsys):
    assert main(["verify", "peterzon"]) == 2
    assert "unknown case study" in one_error_line(capsys)


def test_verify_named_with_model_list(capsys):
    assert main(["verify", "message-passing-val", "--model", "ra,sc"]) == 0
    out = capsys.readouterr().out
    assert "message-passing-val [ra]" in out
    assert "message-passing-val [sc]" in out


def test_verify_named_unknown_model(capsys):
    """An unknown model is a usage error (status 2), not the refutation
    status 1."""
    assert main(["verify", "peterson", "--model", "tso"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro verify: error: unknown model 'tso'")


def test_verify_incompatible_model_errors_cleanly(capsys):
    """Forcing an RA-only outline (UpdateOnly/DV assertions) onto SC
    stores must be a clean error naming the pinned models, not an
    AttributeError traceback."""
    assert main(["verify", "peterson", "--model", "sc"]) == 2
    assert "stated for models ['ra']" in one_error_line(capsys)


def test_verify_without_arguments(capsys):
    assert main(["verify"]) == 2
    assert "--list" in one_error_line(capsys)


def test_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("peterson", "spinlock-tas", "ticket-lock", "seqlock",
                 "barrier", "dekker"):
        assert name in out


# ----------------------------------------------------------------------
# --all: the registry sweep through the parallel runner
# ----------------------------------------------------------------------


def test_verify_all_discharges_every_outline(capsys):
    assert main(["verify", "--all"]) == 0
    out = capsys.readouterr().out
    assert "proved" in out and "REFUTED" not in out
    assert " 0 failed" in out


def test_verify_all_parallel_matches_sequential(capsys):
    assert main(["verify", "--all", "--jobs", "1"]) == 0
    sequential = capsys.readouterr().out
    assert main(["verify", "--all", "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    strip = lambda out: [
        line.split("time=")[0].rstrip()
        for line in out.splitlines()
        if "configs=" in line
    ]
    assert strip(sequential) == strip(parallel)
    assert len(strip(sequential)) >= 8


def test_verify_all_model_filter(capsys):
    assert main(["verify", "--all", "--model", "sc"]) == 0
    out = capsys.readouterr().out
    assert "[sc] proof" in out and "[ra] proof" not in out


def test_verify_all_unmatched_model_filter(capsys):
    assert main(["verify", "--all", "--model", "sra"]) == 2
    assert "no registered outline" in one_error_line(capsys)


# ----------------------------------------------------------------------
# --file / --outline: ad-hoc programs against spec outlines
# ----------------------------------------------------------------------


def test_verify_file_with_good_outline(mp_file, tmp_path, capsys):
    spec = spec_file(tmp_path, GOOD_SPEC)
    assert main([
        "verify", "--file", mp_file, "--outline", spec, "--max-events", "10",
    ]) == 0
    out = capsys.readouterr().out
    assert "consumer sees payload" in out and "OK" in out


def test_verify_file_with_broken_outline_localises(mp_file, tmp_path, capsys):
    spec = spec_file(tmp_path, BROKEN_SPEC)
    assert main([
        "verify", "--file", mp_file, "--outline", spec, "--max-events", "10",
    ]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    # the offending transition: the producer's write of 5 to d
    assert "preservation of d never becomes 5 failed across wr(d,5)" in out


def test_verify_file_outline_function_form(mp_file, tmp_path, capsys):
    spec = spec_file(tmp_path, FUNC_SPEC)
    assert main([
        "verify", "--file", mp_file, "--outline", spec, "--max-events", "10",
    ]) == 0


def test_verify_file_without_outline(mp_file, capsys):
    assert main(["verify", "--file", mp_file]) == 2
    assert "--outline" in one_error_line(capsys)


def test_verify_file_spec_without_outline_binding(mp_file, tmp_path, capsys):
    spec = spec_file(tmp_path, "x = 1\n")
    assert main(["verify", "--file", mp_file, "--outline", spec]) == 2
    assert "OUTLINE" in one_error_line(capsys)


def _broken_outline_run(mp_file, tmp_path, capsys, *extra):
    spec = spec_file(tmp_path, BROKEN_SPEC)
    assert main([
        "verify", "--file", mp_file, "--outline", spec, "--max-events", "10",
        *extra,
    ]) == 1
    return capsys.readouterr().out


def test_verify_file_failed_counts_agree(mp_file, tmp_path, capsys):
    """The invariant line, the report row and the metrics export count
    the same failed obligations, though only ten failures are kept."""
    metrics = tmp_path / "m.json"
    out = _broken_outline_run(
        mp_file, tmp_path, capsys, "--metrics", str(metrics),
    )
    (invariant,) = [l for l in out.splitlines() if "d never becomes 5" in l
                    and "obligations" in l]
    (row,) = [l for l in out.splitlines() if l.strip().startswith("configs=")]
    failed = int(re.search(r"(\d+) FAILED", invariant).group(1))
    assert failed > 10  # more than the report keeps
    assert f"{failed} FAILED" in row
    assert out.count("  !! ") == 10
    counters = json.loads(metrics.read_text())["counters"]["cli"]
    assert counters["failed_obligations"] == failed


def test_verify_file_records_stats(mp_file, tmp_path, capsys, monkeypatch):
    """``verify --file`` hands its stats to ``--metrics`` and the ledger."""
    from repro.obs.ledger import read_ledger

    ledger = tmp_path / "runs.jsonl"
    monkeypatch.delenv("REPRO_NO_LEDGER", raising=False)
    monkeypatch.setenv("REPRO_LEDGER", str(ledger))
    metrics = tmp_path / "m.json"
    out = _broken_outline_run(
        mp_file, tmp_path, capsys, "--metrics", str(metrics),
    )
    configs = int(re.search(r"configs=(\d+)", out).group(1))
    doc = json.loads(metrics.read_text())
    assert doc["counters"]["cli"]["configs"] == configs
    assert doc["timers"]["cli"]["time_total"] > 0
    (record,) = read_ledger(str(ledger))
    assert record["stats"]["configs"] == configs
    assert record["stats"]["obligations"] > 0


def test_verify_named_failed_count_is_per_invariant(capsys, tmp_path):
    """Per-name ``verify`` records the per-invariant failure count, the
    number ``verify --all`` sums, not the kept-failures list."""
    metrics = tmp_path / "m.json"
    assert main([
        "verify", "dekker", "--model", "ra", "--metrics", str(metrics),
    ]) == 1
    out = capsys.readouterr().out
    (row,) = [l for l in out.splitlines() if l.strip().startswith("configs=")]
    failed = int(re.search(r"(\d+) FAILED", row).group(1))
    counters = json.loads(metrics.read_text())["counters"]["cli"]
    assert counters["failed_obligations"] == failed
