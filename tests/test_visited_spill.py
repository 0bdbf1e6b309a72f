"""The spillable visited-set vs a plain Python set (DESIGN.md §15).

Property-tested drop-in contract: under any insertion sequence and any
spill threshold — never spills, spills on the first key, spills mid-run
— ``add``/``in``/``len`` must answer exactly what a plain set answers.
The unsound direction for a model checker is a false "already visited"
(it silently prunes live configurations), so the saturation tests drive
the first-bytes filter into heavy collision territory and require every
fresh-key query to come back negative.

Lifecycle: spill directories are private to one exploration and must be
removed on success *and* when a sharded worker crashes mid-run (the
coordinator's ``finally`` sweeps the per-shard stores).
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.visited import (
    SpillableVisitedSet,
    encode_config_key,
    key_digest_of,
    program_token,
)
from repro.interp.compiled import maybe_lower
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.litmus.suite import ALL_TESTS

#: small alphabet => plenty of duplicate inserts in generated sequences
KEYS = st.tuples(
    st.integers(min_value=0, max_value=7),
    st.sampled_from(["x", "y", "rlx", "acq"]),
    st.integers(min_value=0, max_value=3),
)

#: the pinned threshold matrix: never / immediately / mid-run / unbounded
THRESHOLDS = [0, 1, 64, None]


@settings(max_examples=60, deadline=None)
@given(st.lists(KEYS, max_size=200), st.sampled_from(THRESHOLDS))
def test_add_contains_len_parity(tmp_path_factory, keys, max_entries):
    spill_dir = str(tmp_path_factory.mktemp("spill"))
    reference = set()
    store = SpillableVisitedSet(
        spill_dir=spill_dir, max_entries=max_entries,
    )
    try:
        for key in keys:
            assert store.add(key) == (key not in reference)
            reference.add(key)
            assert key in store
        assert len(store) == len(reference)
        for key in reference:
            assert key in store
        if max_entries is not None and len(reference) > max_entries:
            assert store.spilled
            assert store.spilled_keys == len(reference)
        if max_entries is None:
            assert not store.spilled
    finally:
        store.close()
    assert not os.path.isdir(spill_dir)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=500),
                min_size=1, max_size=120, unique=True))
def test_adversarial_shared_prefixes(tmp_path_factory, suffixes):
    """Keys whose encodings share a long common prefix must still be
    told apart by the exact byte scan, before and after the spill."""
    spill_dir = str(tmp_path_factory.mktemp("spill"))
    prefix = ("shared",) * 32
    keys = [prefix + (n,) for n in suffixes]
    with SpillableVisitedSet(spill_dir=spill_dir, max_entries=0) as store:
        for key in keys:
            assert store.add(key)
            assert not store.add(key)
        for key in keys:
            assert key in store
        absent = prefix + (max(suffixes) + 1,)
        assert absent not in store
        assert prefix not in store


def test_no_false_positives_under_filter_saturation(tmp_path):
    """Saturate the filter (many prefixes, few buckets), then require a
    clean negative for every fresh key — a filter hit may cost a bucket
    scan but never a wrong answer."""
    store = SpillableVisitedSet(
        spill_dir=str(tmp_path / "spill"), max_entries=0, buckets=2,
    )
    with store:
        for n in range(2000):
            store.add(("k", n))
        for n in range(2000, 2400):
            assert ("k", n) not in store, f"false positive for {n}"
        # every positive answer above was a confirmed bucket scan, not a
        # filter verdict: the scan counter moves once per positive query
        scans_before = store.filter_scans
        positives = list(range(0, 2000, 97))
        for n in positives:
            assert ("k", n) in store
        assert store.filter_scans - scans_before >= len(positives)


def test_budget_without_dir_is_refused():
    with pytest.raises(ValueError, match="spill_dir"):
        SpillableVisitedSet(max_entries=10)
    with pytest.raises(ValueError, match="spill_dir"):
        SpillableVisitedSet(max_bytes=1024)


def test_byte_budget_spills_and_estimates_monotonically(tmp_path):
    store = SpillableVisitedSet(
        spill_dir=str(tmp_path / "spill"), max_bytes=600,
    )
    with store:
        last = 0
        spilled_at = None
        for n in range(200):
            store.add(("padding-" * 4, n))
            if not store.spilled:
                assert store.estimated_bytes >= last
                last = store.estimated_bytes
            elif spilled_at is None:
                spilled_at = n
        assert store.spilled and store.spills == 1
        assert spilled_at is not None and spilled_at < 200
        assert len(store) == 200


def test_close_is_idempotent_and_removes(tmp_path):
    spill_dir = str(tmp_path / "spill")
    store = SpillableVisitedSet(spill_dir=spill_dir, max_entries=0)
    store.add(("a",))
    assert os.path.isdir(spill_dir)
    store.close()
    store.close()  # crash-path second call must not raise
    assert not os.path.isdir(spill_dir)


def test_encode_config_key_rejects_raw_states():
    class Opaque:
        pass

    program = maybe_lower(ALL_TESTS[0].program)
    with pytest.raises(TypeError):
        encode_config_key((program, Opaque()))
    # while canonical-grammar keys encode injectively enough to digest
    enc = encode_config_key((program, ("x", 1)))
    assert isinstance(enc, bytes) and len(key_digest_of(enc)) == 16
    assert program_token(program) == program_token(program)


# ----------------------------------------------------------------------
# Engine lifecycle: cleanup on success and on worker crash
# ----------------------------------------------------------------------


def _explore_spilling(test, spill_dir, **kwargs):
    return explore(
        test.program, test.init, RAMemoryModel(),
        max_events=test.max_events, spill_dir=spill_dir,
        spill_max_entries=4, **kwargs,
    )


def test_single_process_spill_parity_and_cleanup(tmp_path):
    test = ALL_TESTS[0]
    plain = explore(test.program, test.init, RAMemoryModel(),
                    max_events=test.max_events)
    spill_dir = str(tmp_path / "spill")
    spilled = _explore_spilling(test, spill_dir)
    assert spilled.configs == plain.configs
    assert spilled.transitions == plain.transitions
    assert spilled.stats.spills == 1
    assert spilled.stats.spilled_keys == plain.configs
    assert not os.path.isdir(spill_dir)  # removed on success


def test_sleep_reduction_spill_parity_and_cleanup(tmp_path):
    test = ALL_TESTS[0]
    plain = explore(test.program, test.init, RAMemoryModel(),
                    max_events=test.max_events, reduction="sleep")
    spill_dir = str(tmp_path / "spill")
    spilled = _explore_spilling(test, spill_dir, reduction="sleep")
    assert spilled.configs == plain.configs
    assert spilled.stats.spills == 1
    assert not os.path.isdir(spill_dir)


def test_sharded_spill_cleanup_on_success(tmp_path):
    test = ALL_TESTS[0]
    spill_dir = str(tmp_path / "spill")
    os.makedirs(spill_dir)
    result = explore(
        test.program, test.init, RAMemoryModel(),
        max_events=test.max_events, shards=3, shard_processes=True,
        spill_dir=spill_dir, spill_max_entries=2,
    )
    assert result.stats.spills == 3  # one overflow per shard store
    assert not any(
        name.startswith("shard-") for name in os.listdir(spill_dir)
    )


def test_sharded_spill_cleanup_on_worker_crash(tmp_path):
    """A hook that blows up inside a shard worker mid-run: the crash is
    re-raised in the parent with the worker traceback, and the
    coordinator's ``finally`` sweeps every per-shard spill store."""
    test = ALL_TESTS[0]
    spill_dir = str(tmp_path / "spill")
    os.makedirs(spill_dir)

    # crash only after a few configs so the worker's spill store exists
    # (fork: each worker counts its own checks on its own copy)
    calls = {"n": 0}

    def exploding_check(config):
        calls["n"] += 1
        if calls["n"] > 5:
            raise RuntimeError("injected worker crash")
        return []

    with pytest.raises(RuntimeError, match="injected worker crash"):
        explore(
            test.program, test.init, RAMemoryModel(),
            max_events=test.max_events, shards=3, shard_processes=True,
            spill_dir=spill_dir, spill_max_entries=2,
            check_config=exploding_check,
        )
    assert not any(
        name.startswith("shard-") for name in os.listdir(spill_dir)
    )
