"""Checkpoint/resume: kill-and-resume parity and the repro-ckpt/6 format.

The fault-tolerance contract (DESIGN.md §16), half one: a run
interrupted at an arbitrary point and resumed from its last snapshot
must finish **byte-identically** to the run that was never interrupted
— same configuration and transition counts, same truncation flags,
same terminal outcome sets, same parent choices, same violations.  The
matrix covers the single-process search and the sharded search
(in-process supersteps and real worker processes), interrupted early
and late via the deterministic ``interrupt:configs=N`` fault.

Half two pins the file format itself: snapshots are atomic,
magic-tagged and fingerprinted, so a resume against the wrong file,
the wrong run or the wrong algorithm fails loudly instead of silently
exploring garbage.

CI runs this file in the chaos job.
"""

import os
import pickle

import pytest

from repro.casestudies.peterson import PETERSON_INIT, peterson_program
from repro.engine.checkpoint import (
    MAGIC,
    SCHEMA_NAME,
    CheckpointError,
    read_checkpoint,
    run_fingerprint,
    write_checkpoint,
)
from repro.faults import FaultInterrupt, FaultPlan, clear_plan, set_plan
from repro.interp.explore import explore
from repro.interp.interpreter import configuration_successors
from repro.interp.ra_model import RAMemoryModel
from repro.litmus.registry import final_values

BOUND = 10  # Peterson (once): 390 configs, 656 transitions

MODEL = RAMemoryModel()


def outcome_set(result):
    return frozenset(
        tuple(sorted(final_values(c).items())) for c in result.terminal
    )


def run_explore(**kwargs):
    return explore(
        peterson_program(once=True), PETERSON_INIT, RAMemoryModel(),
        max_events=BOUND, **kwargs,
    )


def assert_identical(resumed, full, label):
    """The resume contract: every observable equal, not merely close."""
    assert resumed.configs == full.configs, f"{label}: configs diverged"
    assert resumed.transitions == full.transitions, (
        f"{label}: transitions diverged"
    )
    assert resumed.truncated == full.truncated, (
        f"{label}: truncation flag diverged"
    )
    assert resumed.capped == full.capped, f"{label}: capped flag diverged"
    assert outcome_set(resumed) == outcome_set(full), (
        f"{label}: outcome set diverged"
    )
    assert len(resumed.terminal) == len(full.terminal), (
        f"{label}: terminal count diverged"
    )
    assert resumed.parents == full.parents, f"{label}: parent map diverged"
    assert [str(v) for v in resumed.violations] == [
        str(v) for v in full.violations
    ], f"{label}: violations diverged"


def interrupt_and_resume(tmp_path, interrupt_at, checkpoint_every, **kwargs):
    """Run to an injected interrupt, then resume from the snapshot."""
    ckpt = str(tmp_path / "run.ckpt")
    set_plan(FaultPlan(f"interrupt:configs={interrupt_at}"))
    try:
        with pytest.raises(FaultInterrupt) as excinfo:
            run_explore(
                checkpoint=ckpt, checkpoint_every=checkpoint_every, **kwargs,
            )
    finally:
        clear_plan()
    # the exception names the snapshot to resume from
    assert excinfo.value.checkpoint == ckpt
    assert os.path.exists(ckpt)
    resumed = run_explore(checkpoint=ckpt, resume=ckpt, **kwargs)
    assert resumed.stats.resumed == 1
    return resumed


# ----------------------------------------------------------------------
# The kill-and-resume parity matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("reduction", ("none",))
@pytest.mark.parametrize("interrupt_at", (60, 250))
def test_single_process_kill_and_resume(tmp_path, reduction, interrupt_at):
    full = run_explore(reduction=reduction)
    resumed = interrupt_and_resume(
        tmp_path, interrupt_at, 25, reduction=reduction,
    )
    assert_identical(
        resumed, full, f"{reduction} interrupt@{interrupt_at}",
    )


@pytest.mark.parametrize("reduction", ("none",))
def test_sharded_inprocess_kill_and_resume(tmp_path, reduction):
    full = run_explore(reduction=reduction)
    resumed = interrupt_and_resume(
        tmp_path, 150, 50, reduction=reduction,
        shards=4, shard_processes=False,
    )
    assert_identical(resumed, full, f"shards=4 in-process {reduction}")


def test_sharded_process_mode_kill_and_resume(tmp_path):
    """The acceptance row: --shards 4 with real workers, interrupted at
    a superstep barrier, resumed to byte-identical results."""
    full = run_explore()
    resumed = interrupt_and_resume(
        tmp_path, 150, 50, shards=4, shard_processes=True,
    )
    assert_identical(resumed, full, "shards=4 process-mode")


def test_resume_before_first_checkpoint_reports_none(tmp_path):
    """Interrupting before any snapshot landed carries checkpoint=None
    — the harness falls back to a fresh run, nothing to resume."""
    ckpt = str(tmp_path / "never.ckpt")
    set_plan(FaultPlan("interrupt:configs=5"))
    try:
        with pytest.raises(FaultInterrupt) as excinfo:
            run_explore(checkpoint=ckpt, checkpoint_every=100)
    finally:
        clear_plan()
    assert excinfo.value.checkpoint is None
    assert not os.path.exists(ckpt)


def flag_terminal(config):
    """A check hook with one violation per terminal configuration."""
    if not any(True for _ in configuration_successors(config, MODEL)):
        return ["terminal reached"]
    return []


def test_resume_preserves_violations(tmp_path):
    """check_config verdicts survive the snapshot boundary."""
    full = run_explore(check_config=flag_terminal)
    assert full.violations
    resumed = interrupt_and_resume(
        tmp_path, 200, 40, check_config=flag_terminal,
    )
    assert_identical(resumed, full, "violations across resume")


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"shards": 4, "shard_processes": False},
        {"shards": 4, "shard_processes": True},
    ],
    ids=["plain", "shards=4-inprocess", "shards=4-processes"],
)
def test_resumed_counterexample_replays(tmp_path, kwargs):
    """A counterexample taken from a resumed run is rebuilt from the
    restored ``(parent key, tid)`` hops: it chains from the initial
    configuration to a violating one, step for step the same as the
    uninterrupted run's."""
    full = run_explore(check_config=flag_terminal, **kwargs)
    resumed = interrupt_and_resume(
        tmp_path, 150, 50, check_config=flag_terminal, **kwargs,
    )
    trace = resumed.counterexample()
    assert trace
    assert [(s.tid, s.event, s.read_value) for s in trace] == [
        (s.tid, s.event, s.read_value) for s in full.counterexample()
    ]
    cursor = resumed.initial
    for step in trace:
        assert step.source is cursor
        cursor = step.target
    assert flag_terminal(cursor)


def test_checkpointing_is_observation_free(tmp_path):
    """Snapshots on, never interrupted: identical results, and the
    snapshot count lands in the stats."""
    full = run_explore()
    checked = run_explore(
        checkpoint=str(tmp_path / "c.ckpt"), checkpoint_every=100,
    )
    assert checked.stats.checkpoints >= 1
    assert_identical(checked, full, "checkpoint-on uninterrupted")


# ----------------------------------------------------------------------
# The repro-ckpt/6 format: atomicity, magic, fingerprints
# ----------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    path = str(tmp_path / "rt.ckpt")
    fp = {"program": "abc", "bound": "10"}
    write_checkpoint(path, fp, {"algo": "plain", "configs": 7})
    fingerprint, payload = read_checkpoint(path)
    assert fingerprint == fp
    assert payload == {"algo": "plain", "configs": 7}
    # reading with the matching expectation also succeeds
    assert read_checkpoint(path, expect=fp)[1]["configs"] == 7


def test_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "atomic.ckpt")
    for round_ in range(3):
        write_checkpoint(path, "fp", {"round": round_})
    assert sorted(os.listdir(tmp_path)) == ["atomic.ckpt"]
    assert read_checkpoint(path)[1] == {"round": 2}


def test_bad_magic_is_refused(tmp_path):
    path = tmp_path / "not-a-ckpt"
    path.write_bytes(b"definitely not a checkpoint\n" + b"\0" * 64)
    with pytest.raises(CheckpointError, match=f"not a {SCHEMA_NAME}"):
        read_checkpoint(str(path))


@pytest.mark.parametrize(
    "schema",
    ["repro-ckpt/1", "repro-ckpt/2", "repro-ckpt/3", "repro-ckpt/4",
     "repro-ckpt/5"],
)
def test_previous_schema_is_refused_by_name(tmp_path, schema):
    """A repro-ckpt/1 file (whose parent map carried whole steps), a
    repro-ckpt/2 file (which carried a visited-set image beside the
    parent map), a repro-ckpt/3 file (whose compact states carried an
    ``unplaced`` slot), a repro-ckpt/4 file (whose keys were nested
    tuples, not hash-consed nodes) or a repro-ckpt/5 file (whose loop
    state carried its counts beside its stats record) is refused with a one-line error
    naming its schema, never unpickled into the current loop."""
    path = tmp_path / "old.ckpt"
    path.write_bytes(
        schema.encode("ascii") + b"\n"
        + pickle.dumps({"fingerprint": {}, "payload": {}})
    )
    with pytest.raises(CheckpointError, match=schema) as refused:
        read_checkpoint(str(path))
    assert "\n" not in str(refused.value)


def test_torn_write_is_refused(tmp_path):
    """A file holding only the magic (a torn write) reads as corrupt,
    not as an empty run."""
    path = tmp_path / "torn.ckpt"
    path.write_bytes(MAGIC)
    with pytest.raises(CheckpointError):
        read_checkpoint(str(path))


def test_missing_file_is_a_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        read_checkpoint(str(tmp_path / "absent.ckpt"))


def test_foreign_fingerprint_is_refused(tmp_path):
    path = str(tmp_path / "foreign.ckpt")
    write_checkpoint(path, {"program": "run-A"}, {"algo": "plain"})
    with pytest.raises(CheckpointError, match="belongs to a different run"):
        read_checkpoint(path, expect={"program": "run-B"})


def test_resume_rejects_a_different_bound(tmp_path):
    """A snapshot taken at one event bound cannot seed a run at
    another — the fingerprint covers the bounds."""
    ckpt = str(tmp_path / "bound.ckpt")
    set_plan(FaultPlan("interrupt:configs=100"))
    try:
        with pytest.raises(FaultInterrupt):
            run_explore(checkpoint=ckpt, checkpoint_every=25)
    finally:
        clear_plan()
    with pytest.raises(CheckpointError, match="belongs to a different run"):
        explore(
            peterson_program(once=True), PETERSON_INIT, RAMemoryModel(),
            max_events=BOUND + 2, resume=ckpt,
        )


def test_resume_rejects_a_different_shard_count(tmp_path):
    """Shard count is part of the fingerprint: a single-process
    snapshot cannot seed a sharded run."""
    ckpt = str(tmp_path / "plain.ckpt")
    set_plan(FaultPlan("interrupt:configs=100"))
    try:
        with pytest.raises(FaultInterrupt):
            run_explore(checkpoint=ckpt, checkpoint_every=25)
    finally:
        clear_plan()
    with pytest.raises(CheckpointError, match="belongs to a different run"):
        run_explore(shards=4, shard_processes=False, resume=ckpt)


def test_shard_resume_rejects_foreign_loop_state(tmp_path):
    """Defense in depth behind the fingerprint: a file that *claims*
    the sharded run's fingerprint but holds another algorithm's loop
    state is still refused."""
    from repro.interp.compiled import maybe_lower

    program = maybe_lower(peterson_program(once=True))
    fingerprint = run_fingerprint(
        program, PETERSON_INIT, RAMemoryModel(),
        max_events=BOUND, max_configs=None, strategy="bfs",
        reduction="none", equivalence="shasha-snir",
        canonicalize=True, shards=4,
    )
    path = str(tmp_path / "wrong-algo.ckpt")
    write_checkpoint(path, fingerprint, {"algo": "plain"})
    with pytest.raises(CheckpointError, match="loop state"):
        run_explore(shards=4, shard_processes=False, resume=path)


def test_checkpoint_validates_its_surface():
    with pytest.raises(ValueError, match="checkpoint_every"):
        run_explore(checkpoint="x.ckpt", checkpoint_every=0)
    with pytest.raises(ValueError, match="checkpoint/resume"):
        run_explore(checkpoint="x.ckpt", reduction="optimal")
    with pytest.raises(ValueError, match="needs a checkpoint file"):
        run_explore(checkpoint_every=5)
    with pytest.raises(ValueError, match="checkpoint/resume"):
        run_explore(checkpoint="x.ckpt", canonicalize=False)
    with pytest.raises(ValueError, match="unknown equivalence"):
        run_fingerprint(
            peterson_program(once=True), PETERSON_INIT, RAMemoryModel(),
            max_events=BOUND, max_configs=None, strategy="bfs",
            reduction="none", equivalence="sc-traces",
            canonicalize=True, shards=1,
        )
