"""Command-line interface: ``python -m repro <command> ...``.

Commands
========

``run FILE``
    Parse a ``.litmus`` file (see :mod:`repro.lang.parser`), explore it
    exhaustively under a memory model and decide its ``exists`` /
    ``forbidden`` clause.  Exit code 0 when the verdict matches the
    clause's intent, 1 otherwise.  ``--shards N`` partitions the single
    exploration across N worker shards — outcome-identical by
    construction (DESIGN.md §15).

``table``
    Print the built-in litmus suite's verdict table under RA and SC
    (and, with ``--models``, any subset of ra/sra/sc).

``dot FILE``
    Explore a ``.litmus`` file and write a Graphviz rendering of one
    terminal C11 state (the first satisfying the outcome clause, if any,
    else the first terminal state).

``soundness FILE``
    Explore the file's program under RA and check Definition 4.2 on
    every reachable state (Theorem 4.4 empirically, per program).

``suite``
    Run the full litmus suite (and, with ``--case-studies``, the case
    studies) through the engine's parallel runner: one exploration per
    (test, model) pair, fanned out over ``--jobs`` worker processes.
    ``--strategy`` selects the search order (bfs / dfs),
    ``--reduction`` a partial-order reduction (DESIGN.md §9; the
    parsimonious ``optimal`` tier is §13); the verdicts are strategy-,
    reduction- and parallelism-independent.

``fuzz``
    Differential fuzzing (DESIGN.md §6): generate ``--iters`` random
    programs from ``--seed``, run each under SC/SRA/RA and check the
    refinement chain, soundness, axiomatic agreement and POR parity
    (the ``--reduction`` search must be outcome-identical to the full
    one); ``--check-orders`` adds the derived-order oracle, replaying
    the compact bitset representation against the definitional
    closures on every reachable state (DESIGN.md §11), and
    ``--check-shards`` the shard-parity oracle, re-exploring each
    program hash-partitioned across three shards and requiring exact
    parity with the single-process search (DESIGN.md §15).  Divergences
    are delta-debugged to minimal reproducers and persisted under
    ``--corpus-dir`` for pytest replay.  Exit code 1 iff any diverged.

``verify``
    The verification workbench (DESIGN.md §10): mechanically discharge
    a proof outline's obligations — initialisation plus per-transition
    preservation, the paper's Fig. 4 / Appendix D structure — over the
    engine's bounded exploration.  ``verify NAME...`` reports each
    named case study per-obligation; ``verify --all`` sweeps every
    registered (outline × model) pair through the parallel runner;
    ``verify --file F.litmus --outline SPEC.py`` checks an ad-hoc
    program against an outline built in a Python spec file.  There is
    no ``--reduction``: a reduction prunes the very transitions the
    obligations quantify over, so discharge always runs the unreduced
    search.  Exit code 1 iff any obligation failed.

Bad input is one ``repro <command>: error: ...`` line on stderr and exit
status 2: an out-of-range bound, flags no search plan admits together
(``--shards 2 --strategy dfs``), an unknown ``--model`` or case study,
an unreadable file, an outline spec without ``OUTLINE``, a ledger index
that does not exist.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.interp.memory_model import MemoryModel, model_by_name


class UsageError(Exception):
    """A bad option value or combination: ``main`` prints it as one
    ``repro <command>: error: ...`` line and exits with status 2."""


def _plan(**options):
    """The command's :class:`~repro.engine.plan.SearchPlan`; an invalid
    combination of options is a :class:`UsageError`."""
    from repro.engine.plan import SearchPlan

    try:
        return SearchPlan(**options)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _model(name: str) -> MemoryModel:
    """The named memory model; an unknown name is a :class:`UsageError`."""
    try:
        return model_by_name(name.strip())
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _model_names(names: str) -> List[str]:
    """A comma list of model names, each checked by :func:`_model`."""
    listed = [name.strip().lower() for name in names.split(",")]
    for name in listed:
        _model(name)
    return listed


def _load(path: str):
    """The parsed litmus file; an unreadable or unparsable file is a
    :class:`UsageError`."""
    from repro.lang.parser import ParseError, parse_litmus

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_litmus(handle.read())
    except (OSError, UnicodeDecodeError, ParseError) as exc:
        raise UsageError(str(exc)) from None


#: Ledger payload of the command that just ran: handlers stash their
#: footer-level stats (and seed) here; ``main`` appends the record
#: (DESIGN.md §14) so every exiting path — including SystemExit — is
#: ledgered consistently in one place.
_RUN_SUMMARY: dict = {}


def _note_stats(**stats) -> None:
    """Record footer stats for the run ledger and ``--metrics`` export."""
    _RUN_SUMMARY.update(
        {k: v for k, v in stats.items() if v is not None}
    )


def _check_obs_flags(args: argparse.Namespace) -> None:
    """Reject bad observability flags before the command runs, each as
    one :class:`UsageError`: ``--trace-sample`` without ``--trace`` or
    below 1, a bad ``REPRO_TRACE_SAMPLE`` when the run traces without
    ``--trace-sample``, and a ``--trace`` or ``--metrics`` path that
    cannot be opened for writing (probed by opening it for append; a
    file the probe created is removed again)."""
    import os

    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", None)
    sample = getattr(args, "trace_sample", None)
    if sample is not None:
        if trace is None:
            raise UsageError("--trace-sample requires --trace")
        if sample < 1:
            raise UsageError(
                f"--trace-sample must be at least 1, got {sample}"
            )
    elif trace is not None or os.environ.get("REPRO_TRACE"):
        from repro.obs.trace import env_sample

        try:
            env_sample()
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    for flag, path in (("--trace", trace), ("--metrics", metrics)):
        if path is None:
            continue
        existed = os.path.exists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            raise UsageError(f"{flag} {path}: {exc.strerror}") from None
        if not existed:
            os.remove(path)


def _activate_obs(args: argparse.Namespace) -> bool:
    """Turn on the trace bus / progress env for this process tree.

    ``--trace`` both enables the in-process tracer and exports
    ``REPRO_TRACE`` so pool workers trace too, whether they inherit the
    live tracer (fork) or re-resolve the environment (spawn).  All
    records land in one O_APPEND file; lines interleave atomically.
    Returns whether tracing was enabled (so the dispatcher can undo it
    — ``main`` is also called in-process by tests).
    """
    import os

    if not getattr(args, "trace", None):
        return False
    from repro.obs import trace as obs_trace

    os.environ["REPRO_TRACE"] = args.trace
    if args.trace_sample is not None:
        os.environ["REPRO_TRACE_SAMPLE"] = str(args.trace_sample)
    obs_trace.enable(args.trace, sample=args.trace_sample)
    return True


def _deactivate_obs() -> None:
    import os

    from repro.obs import trace as obs_trace

    obs_trace.disable()
    os.environ.pop("REPRO_TRACE", None)
    os.environ.pop("REPRO_TRACE_SAMPLE", None)


def _export_metrics(args: argparse.Namespace) -> None:
    if getattr(args, "metrics", None):
        from repro.obs.metrics import export_to

        fmt = export_to(args.metrics, _RUN_SUMMARY)
        print(f"wrote {args.metrics} ({fmt} metrics)")


def _heartbeat(args: argparse.Namespace, total: int, label: str):
    """The ``--progress`` callback for ParallelRunner.run, or ``None``."""
    if not getattr(args, "progress", False):
        return None
    from repro.obs.progress import Heartbeat

    return Heartbeat(total, label=label, force=True)


def cmd_run(args: argparse.Namespace) -> int:
    from repro.engine.checkpoint import CheckpointError
    from repro.faults import FaultInterrupt, FaultPlan, clear_plan, set_plan
    from repro.lang.parser import run_parsed_litmus

    model = _model(args.model)
    plan = _plan(
        max_events=args.max_events, strategy=args.strategy,
        reduction=args.reduction, shards=args.shards,
        checkpoint=args.checkpoint, checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )
    if args.inject_faults:
        try:
            set_plan(FaultPlan(args.inject_faults))
        except ValueError as exc:
            raise UsageError(f"--inject-faults: {exc}") from None
    try:
        parsed = _load(args.file)
        reachable, result = run_parsed_litmus(parsed, model=model, plan=plan)
    except (ValueError, CheckpointError, FileNotFoundError) as exc:
        # a bad file, snapshot or path: as bad as a bad flag
        raise UsageError(str(exc)) from None
    except FaultInterrupt as exc:
        where = exc.checkpoint or "none written"
        print(f"fault injection stopped the run: {exc}")
        print(f"resumable checkpoint: {where}")
        _note_stats(interrupted=1, checkpoint=exc.checkpoint)
        return 3
    finally:
        if args.inject_faults:
            clear_plan()
    bound = " (bounded)" if result.truncated else ""
    outcome = (
        f"outcome {'reachable' if reachable else 'unreachable'}"
        if parsed.outcome_mode is not None
        else "no outcome clause"
    )
    print(
        f"{parsed.name} [{model.name}]: {outcome}; "
        f"{result.configs} configurations, {len(result.terminal)} terminal"
        f"{bound}"
    )
    if args.stats:
        print("engine:", result.stats.summary())
    if args.profile:
        print("profile:", result.stats.phase_split(rate=True))
    if parsed.outcome_mode == "forbidden":
        ok = not reachable
    elif parsed.outcome_mode == "exists":
        ok = reachable
    else:
        ok = True
    print("verdict:", "OK" if ok else "UNEXPECTED")
    stats = result.stats
    if stats.faults or stats.retries:
        print(
            f"recovery: {stats.faults} worker fault(s), "
            f"{stats.retries} retried attempt(s), "
            f"{stats.respawns} respawned worker(s)"
        )
    _note_stats(
        **stats.counters(),
        shards=stats.shards,
        terminal=len(result.terminal),
        truncated=result.truncated,
        resumed_from=args.resume,
        checkpoint=args.checkpoint,
    )
    return 0 if ok else 1


def _run_batch(args: argparse.Namespace, work, plan, headline):
    """The batch loop behind ``suite`` and ``verify --all``.

    Runs ``work`` on ``--jobs`` workers under the ``--progress``
    heartbeat and prints one row per job, then the footer:
    ``headline(totals)``, the merged record's phase split, its reduction
    counters when the plan reduces, the ``strategy=... workers=...
    wall=...`` line and any job that crashed in a worker.  The totals go
    to the run ledger and ``--metrics``.  Returns the results and their
    totals, or ``None`` when Ctrl-C stopped the batch: the rows that
    completed are printed, then one ``interrupted`` line.
    """
    import time

    from repro.engine.parallel import ParallelRunner, SuiteInterrupted
    from repro.engine.stats import EngineStats

    runner = ParallelRunner(jobs=args.jobs)
    heartbeat = _heartbeat(args, len(work), args.command)
    t0 = time.perf_counter()
    interrupted = False
    try:
        results = runner.run(work, progress=heartbeat)
    except SuiteInterrupted as interrupt:
        results, interrupted = interrupt.results, True
    wall = time.perf_counter() - t0
    if heartbeat is not None:
        heartbeat.finish()
    for r in results:
        print(r.row())
    if interrupted:
        print(
            f"interrupted: {len(results)}/{len(work)} job(s) completed; "
            "workers terminated"
        )
        return None

    totals = runner.aggregate(results)
    merged = EngineStats.folded(r.stats for r in results)
    print("-" * 72)
    print(headline(totals))
    print("phase split:", merged.phase_split(unit="s", rate=True))
    if plan.reduction != "none" and merged.expanded + merged.pruned:
        print(f"reduction={plan.reduction}: {merged.reduction_split()}")
    print(
        f"strategy={plan.strategy} workers={args.jobs} "
        f"wall={wall:.2f}s (worker time {totals['worker_time']:.2f}s)"
    )
    _note_stats(**totals, wall=wall)
    if totals["failures"]:
        print(f"{totals['failures']} job(s) crashed in a worker:")
        for r in results:
            if r.failed:
                last = r.detail.strip().splitlines()[-1] if r.detail else "?"
                print(f"  ERROR {r.label}: {last}")
    return results, totals


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.engine.parallel import case_study_jobs, litmus_jobs

    plan = _plan(
        strategy=args.strategy, reduction=args.reduction, shards=args.shards,
    )
    work = litmus_jobs(
        models=_model_names(args.models), extra=args.extra, plan=plan,
    )
    if args.case_studies:
        work += case_study_jobs(plan=plan)
    batch = _run_batch(args, work, plan, lambda totals: (
        f"{totals['jobs']} jobs, {totals['configs']} configurations, "
        f"{totals['transitions']} transitions; "
        f"key-cache hit rate {100.0 * totals['key_rate']:.0f}%; "
        f"peak frontier {totals['peak_frontier']}"
    ))
    if batch is None:
        return 130
    _, totals = batch
    if totals["mismatches"]:
        print(f"{totals['mismatches']} verdicts diverged from expectations")
        return 1
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    import time

    from repro.engine.parallel import SuiteInterrupted
    from repro.fuzz.corpus import save_campaign
    from repro.fuzz.runner import fuzz_jobs, run_campaign

    campaign = dict(
        seed=args.seed, iters=args.iters, profile=args.profile,
        jobs=args.jobs, axiomatic=not args.no_axiomatic,
        shrink=not args.no_shrink, reduction=args.reduction,
        check_orders=args.check_orders, check_shards=args.check_shards,
        check_faults=args.check_faults,
    )
    try:
        n_jobs = len(fuzz_jobs(**campaign))
    except ValueError as exc:  # an unknown profile or oracle setting
        raise UsageError(str(exc)) from None
    heartbeat = _heartbeat(args, n_jobs, "fuzz")
    t0 = time.perf_counter()
    try:
        report = run_campaign(**campaign, progress=heartbeat)
    except SuiteInterrupted as interrupt:
        if heartbeat is not None:
            heartbeat.finish()
        print(
            f"interrupted: {len(interrupt.results)}/{n_jobs} fuzz job(s) "
            "completed; workers terminated"
        )
        return 130
    wall = time.perf_counter() - t0
    if heartbeat is not None:
        heartbeat.finish()

    for record in report.divergences:
        if not record.original:
            # space-level and worker-crash records carry no program
            print(f"DIVERGENCE [{record.kind}] {record.name}: {record.detail}")
            continue
        print(f"DIVERGENCE [{record.kind}] case #{record.index}: {record.detail}")
        if record.shrunk == record.original:
            # --no-shrink, or nothing to remove: the program below is
            # as generated, not minimal
            print(f"  reproducer as generated "
                  f"({record.shrunk_threads} thread(s), not minimised):")
        else:
            print(f"  shrunk to {record.shrunk_threads} thread(s) "
                  f"in {record.shrink_attempts} attempts:")
        for line in record.shrunk.rstrip().splitlines():
            print(f"    {line}")
    print(report.summary())
    print("phase split:", report.stats.phase_split(unit="s", rate=True))
    print(f"wall={wall:.2f}s workers={args.jobs}")
    _note_stats(
        **report.stats.counters(),
        seed=args.seed,
        iters=args.iters,
        divergences=len(report.divergences),
        inconclusive=report.inconclusive,
        wall=wall,
    )
    if report.divergences and not args.no_save:
        paths = save_campaign(args.corpus_dir, report.divergences)
        for path in paths:
            print(f"wrote {path}")
    if report.ok and args.iters > 0 and report.inconclusive == args.iters:
        # Every iteration hit a bound: the campaign verified nothing,
        # which must not read as a green run (CI vacuity guard).
        print("every iteration was inconclusive; campaign is vacuous")
        return 1
    return 0 if report.ok else 1


def _print_outline_report(label: str, outline, report) -> None:
    """The per-obligation report: one line per named assertion."""
    print(label)
    for inv in outline.invariants:
        ok, bad = report.per_invariant.get(inv.name, (0, 0))
        verdict = "OK" if bad == 0 else f"{bad} FAILED"
        print(f"  {inv.name:<42} {ok + bad:>8} obligations  {verdict}")
    for failure in report.failures:
        print(f"  !! {failure}")
    print(f"  {report.row()}")


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.engine.stats import EngineStats
    from repro.verify.registry import PROOFS

    if args.list:
        print(f"{'case study':<22} {'models':<8} description")
        print("-" * 72)
        for entry in PROOFS.entries():
            print(
                f"{entry.name:<22} {','.join(entry.models):<8} "
                f"{entry.description}"
            )
        return 0

    plan = _plan(
        max_events=args.max_events, max_configs=args.max_configs,
        strategy=args.strategy,
    )
    if args.file:
        return _verify_file(args, plan)
    if args.all:
        return _verify_all(args, plan)
    if not args.names:
        raise UsageError(
            "verify needs case-study names, --all, --list, or --file; "
            "see 'repro verify --list'"
        )

    requested = _model_names(args.model) if args.model else None
    failed = 0
    merged = EngineStats()
    obligations = failed_obligations = 0
    for name in args.names:
        try:
            entry = PROOFS.get(name)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
        models = requested if requested else list(entry.models)
        for model_name in models:
            outline = entry.outline()
            try:
                report = entry.check(model_name, plan=plan)
            except (AttributeError, TypeError) as exc:
                # e.g. a DV/UpdateOnly outline forced onto SC stores:
                # thread-indexed assertions only evaluate on C11 states
                raise UsageError(
                    f"outline {name!r} is stated for models "
                    f"{list(entry.models)}; its assertions could not be "
                    f"evaluated under {model_name!r} ({exc})"
                ) from None
            _print_outline_report(
                f"{entry.name} [{model_name}] — {entry.description}",
                outline, report,
            )
            failed += not report.proved
            merged.merge(report.stats)
            obligations += report.obligations_discharged
            failed_obligations += report.failed_obligations
            _note_stats(
                **merged.counters(),
                obligations=obligations,
                failed_obligations=failed_obligations,
            )
    return 1 if failed else 0


def _verify_all(args: argparse.Namespace, plan) -> int:
    from repro.engine.parallel import verify_jobs

    models = _model_names(args.model) if args.model else None
    work = verify_jobs(models=models, plan=plan)
    if not work:
        raise UsageError("no registered outline matches the requested models")
    batch = _run_batch(args, work, plan, lambda totals: (
        f"{totals['jobs']} proof jobs, {totals['obligations']} obligations "
        f"discharged, {totals['failed_obligations']} failed; "
        f"{totals['configs']} configurations, "
        f"key-cache hit rate {100.0 * totals['key_rate']:.0f}%"
    ))
    if batch is None:
        return 130
    results, totals = batch
    for r in results:
        if not r.verdict_matches and not r.failed:
            print(f"REFUTED: {r.label}: {r.detail}")
    return 1 if totals["mismatches"] else 0


def _verify_file(args: argparse.Namespace, plan) -> int:
    if not args.outline:
        raise UsageError("--file needs --outline SPEC.py (see DESIGN.md §10)")
    parsed = _load(args.file)
    outline = _load_outline_spec(args.outline)
    model_name = args.model or "ra"
    model = _model(model_name)
    report = outline.check(parsed.program, parsed.init, model=model, plan=plan)
    _print_outline_report(
        f"{parsed.name} [{model_name}] — outline from {args.outline}",
        outline, report,
    )
    _note_stats(
        **report.stats.counters(),
        obligations=report.obligations_discharged,
        failed_obligations=report.failed_obligations,
    )
    return 0 if report.proved else 1


def _load_outline_spec(path: str):
    """Execute an outline spec file and extract its ``OUTLINE``.

    The spec is ordinary Python run with the assertion language in
    scope; it must bind ``OUTLINE`` to a :class:`ProofOutline` (or
    define a zero-argument ``outline()`` returning one) — see
    ``examples/spinlock_proof.py`` for the end-to-end shape.
    """
    import repro.verify as verify
    from repro.verify.outline import ProofOutline

    namespace = {
        name: getattr(verify, name)
        for name in verify.__all__
    }
    namespace["__file__"] = path
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise UsageError(str(exc)) from None
    exec(compile(source, path, "exec"), namespace)  # noqa: S102 - spec file
    outline = namespace.get("OUTLINE")
    if outline is None and callable(namespace.get("outline")):
        outline = namespace["outline"]()
    if not isinstance(outline, ProofOutline):
        raise UsageError(
            f"{path} must bind OUTLINE to a ProofOutline (or define "
            "outline() returning one)"
        )
    return outline


def cmd_table(args: argparse.Namespace) -> int:
    from repro.litmus.extra import EXTRA_TESTS
    from repro.litmus.registry import run_litmus
    from repro.litmus.suite import ALL_TESTS

    tests = list(ALL_TESTS) + (list(EXTRA_TESTS) if args.extra else [])
    models = [_model(name) for name in args.models.split(",")]
    header = f"{'test':<22} {'outcome':<36}" + "".join(
        f" {m.name:<10}" for m in models
    )
    print(header)
    print("-" * len(header))
    mismatches = 0
    for test in tests:
        cells = []
        for model in models:
            outcome = run_litmus(test, model)
            mark = "" if outcome.verdict_matches else "*"
            if model.name == "SRA":
                mark = ""  # no pinned expectations for the comparator
            cells.append(
                f" {'allowed' if outcome.reachable else 'forbidden':<9}{mark}"
            )
            if mark:
                mismatches += 1
        print(f"{test.name:<22} {test.outcome_text:<36}" + "".join(cells))
    if mismatches:
        print(f"{mismatches} verdicts diverged from expectations (*)")
    return 0 if not mismatches else 1


def cmd_dot(args: argparse.Namespace) -> int:
    from repro.interp.explore import explore
    from repro.litmus.registry import final_values
    from repro.util.dot import state_to_dot

    plan = _plan(max_events=args.max_events)
    parsed = _load(args.file)
    model = _model(args.model)
    result = explore(
        parsed.program, parsed.init, model, max_events=plan.max_events
    )
    if not result.terminal:
        print("no terminal state within the bound", file=sys.stderr)
        return 1
    chosen = result.terminal[0]
    if parsed.outcome_exp is not None:
        for config in result.terminal:
            if parsed.outcome(final_values(config)):
                chosen = config
                break
    dot = state_to_dot(chosen.state, name=parsed.name)
    if args.out == "-":
        print(dot)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dot + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarize a JSONL trace file (and optionally export Chrome
    trace-event JSON for Perfetto / chrome://tracing)."""
    import json

    from repro.obs.summarize import format_summary, summarize, write_chrome
    from repro.obs.trace import parse_trace

    try:
        records = parse_trace(args.file)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    if not records:
        print(f"{args.file}: empty trace")
        return 1
    summary = summarize(records, top=args.top)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"trace {args.file}:")
        for line in format_summary(summary):
            print(f"  {line}")
    if args.chrome:
        count = write_chrome(records, args.chrome)
        print(f"wrote {args.chrome} ({count} Chrome trace events)")
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    """Inspect the run ledger (``.repro/runs.jsonl``, DESIGN.md §14)."""
    from repro.obs.ledger import diff_records, format_list, read_ledger

    records = read_ledger(args.ledger)
    if not records:
        target = args.ledger or "the ledger"
        print(f"no runs recorded in {target}")
        return 1
    if args.action == "list":
        for line in format_list(records, limit=args.limit):
            print(line)
        return 0
    # diff: indices count from the end (-1 = newest); default last two
    old_idx = args.old if args.old is not None else -2
    new_idx = args.new if args.new is not None else -1
    try:
        old, new = records[old_idx], records[new_idx]
    except IndexError:
        raise UsageError(
            f"ledger has {len(records)} record(s); indices {old_idx} and "
            f"{new_idx} do not both exist"
        ) from None
    for line in diff_records(old, new):
        print(line)
    return 0


def cmd_soundness(args: argparse.Namespace) -> int:
    from repro.checking.soundness import check_soundness

    plan = _plan(max_events=args.max_events)
    parsed = _load(args.file)
    report = check_soundness(
        parsed.program,
        parsed.init,
        max_events=plan.max_events,
        name=parsed.name,
    )
    print(report.row())
    return 0 if report.sound else 1


def _add_obs_flags(sub: argparse.ArgumentParser, progress: bool = False) -> None:
    """The observability knobs shared by run/suite/fuzz/verify."""
    sub.add_argument(
        "--trace", default=None, metavar="PATH",
        help="append JSONL trace records (runs, spans, races, views, "
        "prunes, jobs) to PATH; workers inherit via REPRO_TRACE; "
        "summarize with 'repro trace PATH' (DESIGN.md §14)",
    )
    sub.add_argument(
        "--trace-sample", type=int, default=None, metavar="N",
        help="keep 1-in-N of the high-frequency node/prune records "
        "(N >= 1, default 16; needs --trace; structural records are "
        "never sampled)",
    )
    sub.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="export the command's footer totals after the run: JSON, "
        "or Prometheus text when PATH ends in .prom",
    )
    if progress:
        sub.add_argument(
            "--progress", action="store_true",
            help="render a live heartbeat line on stderr (jobs done, "
            "states/sec, ETA, worker lag) as results stream back",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Operational RAR-C11 semantics toolkit "
        "(Doherty et al., PPoPP 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="decide a .litmus file's outcome")
    run.add_argument("file")
    run.add_argument("--model", default="ra", help="ra | sra | sc")
    run.add_argument("--max-events", type=int, default=None)
    run.add_argument(
        "--strategy", default="bfs", choices=["bfs", "dfs"],
        help="search order (verdict-neutral on uncapped runs)",
    )
    run.add_argument(
        "--stats", action="store_true", help="print engine statistics"
    )
    run.add_argument(
        "--profile", action="store_true",
        help="print the engine phase split (expand / keys / orders / "
        "checks / loop, the search loop's own bookkeeping) and "
        "spin-calibrated states/sec (DESIGN.md §12)",
    )
    run.add_argument(
        "--reduction", default="none",
        choices=["none", "optimal"],
        help="partial-order reduction (outcome-identical, fewer configs; "
        "'optimal' is the parsimonious tier, DESIGN.md §13)",
    )
    run.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition the single exploration across N worker shards "
        "by canonical-key hash (outcome-identical by the parity "
        "contract; requires bfs and reduction none — "
        "DESIGN.md §15)",
    )
    run.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="periodically snapshot the search's complete loop state to "
        "an atomic repro-ckpt/6 file; a resumed run finishes "
        "byte-identically (DESIGN.md §16)",
    )
    run.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="configurations between checkpoint snapshots (default 1000; "
        "needs --checkpoint)",
    )
    run.add_argument(
        "--resume", default=None, metavar="PATH",
        help="continue a checkpointed run; the file's fingerprint must "
        "match this invocation (program, model, bounds, reduction, "
        "shard count)",
    )
    run.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="deterministic fault injection (testing): e.g. "
        "'kill-worker:shard=1,round=2;interrupt:configs=500' — same "
        "grammar as REPRO_FAULTS (DESIGN.md §16)",
    )
    _add_obs_flags(run)
    run.set_defaults(func=cmd_run)

    suite = sub.add_parser(
        "suite", help="run the litmus suite via the parallel engine runner"
    )
    suite.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = in-process sequential run)",
    )
    suite.add_argument(
        "--strategy", default="bfs", choices=["bfs", "dfs"],
        help="search order (verdict-neutral on uncapped runs)",
    )
    suite.add_argument("--models", default="ra,sc", help="comma list of models")
    suite.add_argument("--extra", action="store_true", help="include extras")
    suite.add_argument(
        "--case-studies", action="store_true",
        help="also run the case-study checks (peterson, dekker, token ring)",
    )
    suite.add_argument(
        "--reduction", default="none",
        choices=["none", "optimal"],
        help="partial-order reduction applied in every job "
        "(verdict-identical by design; see DESIGN.md §9 and §13)",
    )
    suite.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="shard each litmus/case-study exploration N ways inside "
        "its job (in-process superstep schedule inside pool workers; "
        "verdict-identical — DESIGN.md §15)",
    )
    _add_obs_flags(suite, progress=True)
    suite.set_defaults(func=cmd_suite)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing of the memory models"
    )
    fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz.add_argument(
        "--iters", type=int, default=100, help="number of generated programs"
    )
    fuzz.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = in-process sequential run)",
    )
    fuzz.add_argument(
        "--profile", default="default",
        help="generator size/shape preset (default | small | wide)",
    )
    fuzz.add_argument(
        "--reduction", default="optimal",
        choices=["none", "optimal"],
        help="reduction the POR-parity oracle cross-validates against "
        "the full search ('none' disables the oracle)",
    )
    fuzz.add_argument(
        "--check-orders", action="store_true",
        help="cross-check the compact (interned/bitset) derived orders "
        "against the definitional closures on every RA-reachable state "
        "(DESIGN.md §11); slower, catches representation bugs",
    )
    fuzz.add_argument(
        "--check-shards", action="store_true",
        help="re-explore each generated program hash-partitioned across "
        "three shards and require exact parity with the single-process "
        "search — outcomes, truncation flag and config count "
        "(DESIGN.md §15); the continuous soundness check of the "
        "sharded explorer",
    )
    fuzz.add_argument(
        "--check-faults", action="store_true",
        help="re-explore each generated program with an injected "
        "mid-search interrupt plus checkpoint/resume, requiring "
        "byte-identical results to the clean run (DESIGN.md §16); the "
        "continuous soundness check of checkpoint/resume",
    )
    fuzz.add_argument(
        "--no-axiomatic", action="store_true",
        help="skip the footprint axiomatic-equivalence oracle",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="report divergences without delta debugging them",
    )
    fuzz.add_argument(
        "--no-save", action="store_true",
        help="do not persist reproducers to the corpus directory",
    )
    fuzz.add_argument(
        "--corpus-dir", default="tests/fuzz_corpus",
        help="where reproducers are persisted (default: tests/fuzz_corpus)",
    )
    _add_obs_flags(fuzz, progress=True)
    fuzz.set_defaults(func=cmd_fuzz)

    verify = sub.add_parser(
        "verify",
        help="discharge proof-outline obligations (the verification workbench)",
    )
    verify.add_argument(
        "names", nargs="*",
        help="registered case studies to verify (see --list)",
    )
    verify.add_argument(
        "--all", action="store_true",
        help="sweep every registered (outline, model) pair in parallel",
    )
    verify.add_argument(
        "--list", action="store_true", help="list the proof registry"
    )
    verify.add_argument(
        "--file", default=None,
        help=".litmus program to verify against --outline",
    )
    verify.add_argument(
        "--outline", default=None,
        help="Python spec binding OUTLINE to a ProofOutline (with --file)",
    )
    verify.add_argument(
        "--model", default=None,
        help="model override: single name (or comma list with --all); "
        "default: each entry's pinned models",
    )
    verify.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for --all (1 = in-process sequential run)",
    )
    verify.add_argument(
        "--strategy", default="bfs", choices=["bfs", "dfs"],
        help="search order (verdict-neutral on uncapped runs)",
    )
    verify.add_argument(
        "--max-events", type=int, default=None,
        help="event bound for --file mode (registry entries pin their own)",
    )
    verify.add_argument(
        "--max-configs", type=int, default=None,
        help="hard cap on explored configurations",
    )
    _add_obs_flags(verify, progress=True)
    verify.set_defaults(func=cmd_verify)

    trace = sub.add_parser(
        "trace",
        help="summarize a JSONL trace file (phase breakdown, hot "
        "programs, race/prune hotspots; optional Perfetto export)",
    )
    trace.add_argument("file", help="trace file written by --trace")
    trace.add_argument(
        "--top", type=int, default=5,
        help="how many hot programs / hotspots to show (default 5)",
    )
    trace.add_argument(
        "--chrome", default=None, metavar="OUT",
        help="also export Chrome trace-event JSON (open in Perfetto "
        "or chrome://tracing)",
    )
    trace.add_argument(
        "--json", action="store_true",
        help="print the summary as JSON instead of the human report",
    )
    trace.set_defaults(func=cmd_trace)

    runs = sub.add_parser(
        "runs",
        help="inspect the run ledger (.repro/runs.jsonl; every "
        "run/suite/fuzz/verify appends a record)",
    )
    runs.add_argument(
        "action", choices=["list", "diff"],
        help="'list' recent records; 'diff' two records' stats",
    )
    runs.add_argument(
        "old", nargs="?", type=int, default=None,
        help="diff: index of the older record (negative counts from "
        "the end; default -2)",
    )
    runs.add_argument(
        "new", nargs="?", type=int, default=None,
        help="diff: index of the newer record (default -1, the latest)",
    )
    runs.add_argument(
        "--ledger", default=None,
        help="ledger path (default: .repro/runs.jsonl or REPRO_LEDGER)",
    )
    runs.add_argument(
        "--limit", type=int, default=20,
        help="list: show at most this many records (newest last)",
    )
    runs.set_defaults(func=cmd_runs)

    table = sub.add_parser("table", help="print the litmus verdict table")
    table.add_argument("--models", default="ra,sc", help="comma list of models")
    table.add_argument("--extra", action="store_true", help="include extras")
    table.set_defaults(func=cmd_table)

    dot = sub.add_parser("dot", help="Graphviz-export a terminal state")
    dot.add_argument("file")
    dot.add_argument("--out", default="-", help="output path ('-' = stdout)")
    dot.add_argument("--model", default="ra")
    dot.add_argument("--max-events", type=int, default=None)
    dot.set_defaults(func=cmd_dot)

    sound = sub.add_parser("soundness", help="Theorem 4.4 check on a file")
    sound.add_argument("file")
    sound.add_argument("--max-events", type=int, default=None)
    sound.set_defaults(func=cmd_soundness)

    return parser


#: Commands whose invocations are appended to the run ledger.
_LEDGERED = ("run", "suite", "fuzz", "verify")


def _dispatch(argv: Optional[List[str]] = None) -> int:
    """Parse, activate observability, run the command, ledger it."""
    import time

    args = build_parser().parse_args(argv)
    _RUN_SUMMARY.clear()
    try:
        _check_obs_flags(args)
    except UsageError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    traced = _activate_obs(args)
    t0 = time.perf_counter()
    try:
        try:
            code = args.func(args)
        except UsageError as exc:
            print(f"repro {args.command}: error: {exc}", file=sys.stderr)
            code = 2
        except BrokenPipeError:
            raise
        except KeyboardInterrupt:
            # Backstop for Ctrl-C / SIGTERM outside the per-command
            # handlers: ledger the aborted run, exit with the
            # conventional interrupt status instead of a traceback.
            _ledger(args, argv, "error", time.perf_counter() - t0)
            print("interrupted", file=sys.stderr)
            return 130
        except SystemExit as exc:
            _ledger(args, argv, "error", time.perf_counter() - t0)
            raise exc
    finally:
        if traced:
            _deactivate_obs()
    _ledger(
        args, argv, "ok" if code == 0 else "fail", time.perf_counter() - t0
    )
    _export_metrics(args)
    return code


def _ledger(args, argv: Optional[List[str]], verdict: str,
            wall: float) -> None:
    if getattr(args, "command", None) not in _LEDGERED:
        return
    from repro.obs.ledger import append_record

    append_record(
        args.command,
        verdict=verdict,
        wall=wall,
        stats=dict(_RUN_SUMMARY),
        seed=_RUN_SUMMARY.get("seed", getattr(args, "seed", None)),
        argv=list(argv) if argv is not None else None,
    )


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # The stdout reader went away (`repro table | head`): finish
        # quietly instead of tracebacking.  Redirect stdout to devnull
        # so the interpreter's exit-time flush cannot re-raise, and
        # report the conventional SIGPIPE status (a truncated run must
        # not read as a green one under `set -o pipefail`).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
