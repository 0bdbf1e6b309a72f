"""Tests for the ``python -m repro`` command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main

SB_TEXT = """
C11 SB (store buffering)
{ x = 0; y = 0; r1 = 0; r2 = 0 }
P1: x := 1; r1 := y
P2: y := 1; r2 := x
exists (r1 = 0 /\\ r2 = 0)
"""

MP_TEXT = """
C11 MP
{ d = 0; f = 0; r1 = 0; r2 = 0 }
P1: d := 5; f :=R 1
P2: r1 := f^A; r2 := d
forbidden (r1 = 1 /\\ r2 = 0)
"""


#: A committed litmus file, for parametrised cases that take no fixture.
SEED_LITMUS = str(Path(__file__).parent / "fuzz_corpus" / "seed_cond_swap.litmus")


@pytest.fixture
def sb_file(tmp_path):
    path = tmp_path / "sb.litmus"
    path.write_text(SB_TEXT)
    return str(path)


@pytest.fixture
def mp_file(tmp_path):
    path = tmp_path / "mp.litmus"
    path.write_text(MP_TEXT)
    return str(path)


def test_run_exists_ok(sb_file, capsys):
    assert main(["run", sb_file]) == 0
    out = capsys.readouterr().out
    assert "reachable" in out and "OK" in out


def test_run_forbidden_ok(mp_file, capsys):
    assert main(["run", mp_file]) == 0
    out = capsys.readouterr().out
    assert "unreachable" in out


def test_run_under_sc_flips_verdict(sb_file, capsys):
    # SB's weak outcome is unreachable under SC: 'exists' fails -> exit 1
    assert main(["run", sb_file, "--model", "sc"]) == 1
    assert "UNEXPECTED" in capsys.readouterr().out


def test_run_unknown_model(sb_file, capsys):
    """An unknown model is a usage error (status 2), never the verdict
    status 1."""
    assert main(["run", sb_file, "--model", "tso"]) == 2
    assert "unknown model 'tso'" in capsys.readouterr().err


def test_table(capsys):
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    assert "SB" in out and "IRIW+rel-acq" in out
    assert "allowed" in out and "forbidden" in out


def test_table_with_sra_and_extras(capsys):
    assert main(["table", "--models", "ra,sra,sc", "--extra"]) == 0
    out = capsys.readouterr().out
    assert "SRA" in out
    assert "S+relaxed" in out  # extras included


def test_dot_to_stdout(sb_file, capsys):
    assert main(["dot", sb_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "rf" in out


def test_dot_to_file(sb_file, tmp_path, capsys):
    out_path = tmp_path / "sb.dot"
    assert main(["dot", sb_file, "--out", str(out_path)]) == 0
    assert out_path.read_text().startswith("digraph")


def test_soundness_command(mp_file, capsys):
    assert main(["soundness", mp_file]) == 0
    assert "OK" in capsys.readouterr().out


def test_run_with_stats_and_strategy(sb_file, capsys):
    assert main(["run", sb_file, "--strategy", "dfs", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "engine:" in out and "strategy=dfs" in out


def test_suite_sequential(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "SB [ra]" in out and "MP+await [sc]" in out
    assert "key-cache hit rate" in out


def test_suite_parallel_matches_sequential(capsys):
    assert main(["suite", "--jobs", "1"]) == 0
    sequential = capsys.readouterr().out
    assert main(["suite", "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    # Verdict rows are identical modulo per-run wall times.
    strip = lambda out: [
        line.split("time=")[0].rstrip()
        for line in out.splitlines()
        if "configs=" in line
    ]
    assert strip(sequential) == strip(parallel)
    assert strip(sequential)  # non-empty


def test_suite_with_case_studies(capsys):
    assert main(["suite", "--jobs", "2", "--case-studies"]) == 0
    out = capsys.readouterr().out
    assert "peterson (case study)" in out
    assert "violated" in out  # the relaxed-turn mutant and dekker


def test_suite_unknown_model(capsys):
    assert main(["suite", "--models", "ra,tso"]) == 2
    assert "unknown model 'tso'" in capsys.readouterr().err


def test_fuzz_clean_campaign(capsys, tmp_path):
    assert main([
        "fuzz", "--seed", "0", "--iters", "5", "--no-axiomatic",
        "--corpus-dir", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "no divergences" in out
    assert not list(tmp_path.iterdir())  # nothing to persist


def test_fuzz_divergence_exit_code_and_corpus(capsys, tmp_path, monkeypatch):
    from fuzz_helpers import BrokenSRA
    from repro.fuzz import oracles

    monkeypatch.setitem(oracles.ORACLE_MODELS, "sra", BrokenSRA)
    assert main([
        "fuzz", "--seed", "11", "--iters", "1", "--profile", "wide",
        "--no-axiomatic", "--corpus-dir", str(tmp_path),
    ]) == 1
    out = capsys.readouterr().out
    assert "DIVERGENCE [refinement]" in out
    assert "shrunk to 1 thread(s)" in out
    written = list(tmp_path.glob("*.litmus"))
    assert len(written) == 1
    assert "fuzz_wide_s11_i0_min" in written[0].name


def test_fuzz_no_save_skips_corpus(capsys, tmp_path, monkeypatch):
    from fuzz_helpers import BrokenSRA
    from repro.fuzz import oracles

    monkeypatch.setitem(oracles.ORACLE_MODELS, "sra", BrokenSRA)
    assert main([
        "fuzz", "--seed", "11", "--iters", "1", "--profile", "wide",
        "--no-axiomatic", "--no-save", "--corpus-dir", str(tmp_path),
    ]) == 1
    assert not list(tmp_path.iterdir())


def test_fuzz_unknown_profile(capsys):
    """An unknown profile is a usage error (exit 2), not a verdict."""
    assert main(["fuzz", "--iters", "1", "--profile", "enormous"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro fuzz: error: unknown profile 'enormous'")


def test_run_file_without_outcome_clause(tmp_path, capsys):
    """Fuzz-corpus reproducers have no exists/forbidden clause; `run`
    must explore them rather than crash (pure-exploration mode)."""
    path = tmp_path / "repro.litmus"
    path.write_text("C11 noclause\n{ x = 0 }\nP1: x := 1\n")
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "no outcome clause" in out and "OK" in out


def test_fuzz_all_inconclusive_campaign_is_vacuous(capsys, tmp_path, monkeypatch):
    """A campaign where every iteration hit a bound verified nothing and
    must fail, or the CI smoke job could go silently green."""
    import repro.fuzz.runner as runner_mod

    real = runner_mod.run_campaign
    monkeypatch.setattr(
        runner_mod,
        "run_campaign",
        lambda **kw: real(**{**kw, "max_configs": 1}),
    )
    assert main([
        "fuzz", "--seed", "0", "--iters", "2", "--no-axiomatic",
        "--no-save", "--corpus-dir", str(tmp_path),
    ]) == 1
    assert "vacuous" in capsys.readouterr().out


def test_run_with_reduction(sb_file, capsys):
    """``--reduction none`` is the unreduced search: its stats line
    carries no reduction counters."""
    assert main(["run", sb_file, "--reduction", "none", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "engine: strategy=bfs" in out
    assert "reduction=" not in out
    assert "verdict: OK" in out


def test_suite_with_reduction_footer(capsys):
    assert main(["suite", "--models", "ra", "--reduction", "optimal"]) == 0
    out = capsys.readouterr().out
    assert "reduction=optimal: pruned" in out
    assert "sleep-hits=" in out and "races=" in out


def test_suite_reduction_matches_unreduced_verdicts(capsys):
    assert main(["suite", "--reduction", "optimal"]) == 0
    reduced_out = capsys.readouterr().out
    assert "diverged" not in reduced_out


def test_run_reduction_sleep_is_a_usage_error(sb_file):
    with pytest.raises(SystemExit) as run_exit:
        main(["run", sb_file, "--reduction", "sleep"])
    assert run_exit.value.code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["{sb}", "--checkpoint", "{ckpt}", "--reduction", "optimal"],
        ["{sb}", "--checkpoint-every", "0"],
        ["{sb}", "--checkpoint-every", "50"],
        ["{sb}", "--max-events", "-1"],
        ["{sb}", "--resume", "{missing}.ckpt"],
        ["{missing}.litmus"],
    ],
    ids=[
        "checkpoint-optimal", "checkpoint-every-0",
        "checkpoint-every-without-checkpoint",
        "max-events-negative", "resume-missing", "litmus-missing",
    ],
)
def test_run_rejects_bad_input_with_one_line(sb_file, tmp_path, capsys, args):
    """A bad flag combination, bound or path is one error line on stderr
    and exit status 2 — never a traceback."""
    paths = {
        "sb": sb_file,
        "ckpt": str(tmp_path / "run.ckpt"),
        "missing": str(tmp_path / "missing"),
    }
    assert main(["run", *(arg.format(**paths) for arg in args)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro run: error: ")
    assert "Traceback" not in captured.out + captured.err


def test_run_with_optimal_reduction(sb_file, capsys):
    assert main(["run", sb_file, "--reduction", "optimal", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "reduction=optimal" in out
    assert "verdict: OK" in out


def test_equivalence_without_keyed_reduction_is_rejected(sb_file):
    """There is no equivalence flag: a stale invocation is a usage error."""
    with pytest.raises(SystemExit) as run_exit:
        main(["run", sb_file, "--equivalence", "reads-from"])
    assert run_exit.value.code == 2
    with pytest.raises(SystemExit) as suite_exit:
        main(["suite", "--reduction", "optimal", "--equivalence", "reads-from"])
    assert suite_exit.value.code == 2
    with pytest.raises(SystemExit) as fuzz_exit:
        main(["fuzz", "--reduction", "optimal", "--equivalence", "reads-from"])
    assert fuzz_exit.value.code == 2


def test_suite_with_optimal_reduction_footer(capsys):
    assert main(["suite", "--reduction", "optimal", "--case-studies"]) == 0
    out = capsys.readouterr().out
    assert "reduction=optimal: pruned" in out
    assert "races=" in out
    assert "diverged" not in out


def test_suite_crashed_job_renders_error_footer(capsys, monkeypatch):
    """A worker crash must surface in the suite output — an ERROR row,
    a crash footer, and exit code 1 — with the footer still rendering
    (no zero-division on the crashed job's zeroed stats)."""
    import repro.engine.parallel as parallel

    real = parallel.run_suite_job

    def crashy(job):
        if job.name == "SB":
            raise RuntimeError("injected worker crash")
        return real(job)

    monkeypatch.setattr(parallel, "run_suite_job", crashy)
    assert main(["suite", "--models", "ra"]) == 1
    out = capsys.readouterr().out
    assert "ERROR" in out
    assert "job(s) crashed in a worker:" in out
    assert "injected worker crash" in out
    assert "phase split: expand=" in out  # footer still rendered


@pytest.mark.parametrize(
    "argv",
    [
        ["suite", "--shards", "2", "--strategy", "dfs"],
        ["suite", "--shards", "0"],
        ["suite", "--shards", "2", "--reduction", "optimal"],
        ["verify", "spinlock-tas", "--max-configs", "0"],
        ["verify", "--all", "--max-configs", "0"],
        ["verify", "--all", "--max-configs", "-3", "--jobs", "2"],
        ["run", SEED_LITMUS, "--model", "tso"],
        ["suite", "--models", "ra,tso"],
        ["verify", "peterson", "--model", "tso"],
        ["fuzz", "--profile", "enormous", "--iters", "1"],
    ],
    ids=[
        "suite-shards-dfs", "suite-shards-0", "suite-shards-optimal",
        "verify-name-cap-0", "verify-all-cap-0", "verify-all-cap-negative",
        "run-unknown-model", "suite-unknown-model", "verify-unknown-model",
        "fuzz-unknown-profile",
    ],
)
def test_plan_errors_are_one_line_on_every_command(capsys, argv):
    """A search-plan error fails every command the way it fails
    ``repro run``: one ``repro <cmd>: error: ...`` line, status 2."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"repro {argv[0]}: error: ")
    assert "Traceback" not in captured.out + captured.err


def test_verify_all_honours_max_configs(capsys):
    """``verify --all --max-configs N`` caps every job's search: each
    row reports at most N configurations and is marked bounded."""
    assert main(["verify", "--all", "--max-configs", "5"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if "] proof " in line]
    assert rows and all("(bounded)" in row for row in rows)
    configs = [int(row.split("configs=")[1].split()[0]) for row in rows]
    assert max(configs) <= 5


def test_verify_has_no_reduction_flag():
    """Discharge is always unreduced, so ``--reduction`` is a usage
    error rather than a knob that falls back."""
    with pytest.raises(SystemExit) as verify_exit:
        main(["verify", "spinlock-tas", "--reduction", "optimal"])
    assert verify_exit.value.code == 2


def test_run_with_profile_footer(sb_file, capsys):
    assert main(["run", sb_file, "--profile"]) == 0
    out = capsys.readouterr().out
    assert "profile: expand=" in out
    assert "states/Mspin" in out


def test_suite_footer_has_phase_split(capsys):
    assert main(["suite", "--extra"]) == 0
    out = capsys.readouterr().out
    assert "phase split: expand=" in out
    assert "states/Mspin" in out


def _phase_terms(line, unit):
    """``name -> value`` for every ``name=<number><unit>`` term of a line."""
    return {
        name: float(value)
        for name, value in re.findall(rf"(\w+)=([\d.]+){unit}\b", line)
    }


def _phase_sum(terms):
    return (
        terms["expand"] + terms["keys"] + terms["store"] + terms["checks"]
        + terms["loop"]
    )


def test_run_profile_terms_sum_to_total(sb_file, capsys):
    """``expand + keys + store + checks + loop`` is the printed
    ``total``; under ``optimal`` the ``loop`` term is the reduction's own
    bookkeeping."""
    assert main(["run", sb_file, "--profile", "--reduction", "optimal"]) == 0
    out = capsys.readouterr().out
    (line,) = [l for l in out.splitlines() if l.startswith("profile: expand=")]
    terms = _phase_terms(line, "ms")
    assert {"expand", "keys", "store", "checks", "loop", "total"} <= set(terms)
    assert terms["loop"] >= 0
    # six terms, each rounded to 0.1 ms
    assert abs(_phase_sum(terms) - terms["total"]) <= 0.3 + 1e-9


def test_run_profile_store_term_of_the_unreduced_loop(sb_file, capsys):
    """The unreduced loop times its visited store: ``store`` is non-zero
    and the six terms still sum to ``total``."""
    assert main(["run", sb_file, "--profile"]) == 0
    out = capsys.readouterr().out
    (line,) = [l for l in out.splitlines() if l.startswith("profile: expand=")]
    terms = _phase_terms(line, "ms")
    assert terms["store"] > 0 and terms["loop"] >= 0
    assert abs(_phase_sum(terms) - terms["total"]) <= 0.3 + 1e-9


def test_suite_phase_split_terms_sum_to_total(capsys):
    assert main(["suite", "--extra", "--reduction", "optimal"]) == 0
    out = capsys.readouterr().out
    (line,) = [l for l in out.splitlines() if l.startswith("phase split:")]
    terms = _phase_terms(line, "s")
    # six terms, each rounded to 10 ms
    assert abs(_phase_sum(terms) - terms["total"]) <= 0.03 + 1e-9


def test_metrics_export_is_per_command(sb_file, tmp_path, capsys):
    """Two in-process runs export their own totals: nothing carries over
    from the first command into the second's ``--metrics`` file."""
    for index in (1, 2):
        path = tmp_path / f"m{index}.json"
        assert main(["run", sb_file, "--metrics", str(path)]) == 0
        out = capsys.readouterr().out
        configs = int(re.search(r"(\d+) configurations", out).group(1))
        doc = json.loads(path.read_text())
        assert doc["counters"]["cli"]["configs"] == configs


def test_suite_metrics_equal_footer_totals(tmp_path, capsys):
    """The suite's export is its footer: the configs the footer prints,
    the merged model time, and no process-global ``engine`` family."""
    path = tmp_path / "m.json"
    assert main(["suite", "--models", "ra", "--metrics", str(path)]) == 0
    out = capsys.readouterr().out
    configs = int(re.search(r"jobs, (\d+) configurations", out).group(1))
    doc = json.loads(path.read_text())
    assert doc["counters"]["cli"]["configs"] == configs
    assert doc["timers"]["cli"]["time_model"] > 0
    assert all(set(doc[family]) == {"cli"}
               for family in ("counters", "gauges", "timers"))
