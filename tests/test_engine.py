"""Tests for the exploration engine subsystem (repro.engine).

Covers the frontier/strategy abstraction, the canonical-key memoization
layer, engine statistics, and the canonical-key interleaving-invariance
property the whole dedup scheme rests on.
"""

import pytest

from repro.engine import (
    BFSFrontier,
    DFSFrontier,
    KEY_CACHE,
    frontier_class,
)
from repro.engine.stats import EngineStats
from repro.interp import canon
from repro.interp.canon import canonical_key
from repro.interp.explore import explore, reachable_states
from repro.interp.ra_model import RAMemoryModel
from repro.lang.builder import acq, assign, neg, seq, skip, var, while_
from repro.lang.program import Program
from repro.litmus.suite import test_by_name as litmus_by_name

SB_INIT = {"x": 0, "y": 0, "r1": 0, "r2": 0}


def sb_program():
    return Program.parallel(
        seq(assign("x", 1), assign("r1", var("y"))),
        seq(assign("y", 1), assign("r2", var("x"))),
    )


def mp_program():
    return Program.parallel(
        seq(assign("d", 1), assign("f", 1)),
        seq(assign("r1", var("f")), assign("r2", var("d"))),
    )


# ----------------------------------------------------------------------
# Frontiers and strategies
# ----------------------------------------------------------------------


def test_bfs_frontier_is_fifo():
    f = BFSFrontier()
    for i in range(3):
        f.push(i)
    assert [f.pop(), f.pop(), f.pop()] == [0, 1, 2]


def test_dfs_frontier_is_lifo():
    f = DFSFrontier()
    for i in range(3):
        f.push(i)
    assert [f.pop(), f.pop(), f.pop()] == [2, 1, 0]


def test_frontier_len_and_bool():
    f = BFSFrontier()
    assert not f and len(f) == 0
    f.push("a")
    assert f and len(f) == 1


def test_frontier_class_resolution():
    assert frontier_class("bfs") is BFSFrontier
    assert frontier_class("dfs") is DFSFrontier
    assert frontier_class("BFS") is BFSFrontier
    with pytest.raises(ValueError):
        frontier_class("a-star")


def test_explore_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        explore(
            Program.parallel(assign("x", 1)), {"x": 0}, RAMemoryModel(),
            strategy="monte-carlo",
        )


@pytest.mark.parametrize(
    "program,init,max_events",
    [
        (sb_program(), SB_INIT, None),
        (mp_program(), {"d": 0, "f": 0, "r1": 0, "r2": 0}, None),
        # MP+await: a busy-wait loop, so the event bound truncates.
        (
            Program.parallel(
                seq(assign("d", 5), assign("f", 1, release=True)),
                seq(while_(neg(acq("f")), skip()), assign("r", var("d"))),
            ),
            {"d": 0, "f": 0, "r": 0},
            9,
        ),
    ],
    ids=["SB", "MP", "MP+await"],
)
def test_strategies_agree_on_counts_and_terminals(program, init, max_events):
    """BFS and DFS must visit the same configuration set: dedup is by
    canonical key, so visit order cannot change the visited set."""
    results = {
        s: explore(
            program, init, RAMemoryModel(), max_events=max_events, strategy=s
        )
        for s in ("bfs", "dfs")
    }
    reference = results["bfs"]
    for strategy, result in results.items():
        assert result.configs == reference.configs, strategy
        assert result.transitions == reference.transitions, strategy
        assert len(result.terminal) == len(reference.terminal), strategy
        assert result.truncated == reference.truncated, strategy
        assert {
            canonical_key(c.state) for c in result.terminal
        } == {canonical_key(c.state) for c in reference.terminal}, strategy


@pytest.mark.parametrize("name", ["SB", "MP+rel-acq", "CoRR", "MP+await"])
def test_strategies_agree_on_litmus_verdicts(name):
    from repro.engine.plan import SearchPlan
    from repro.litmus.registry import run_litmus

    test = litmus_by_name(name)
    verdicts = {
        s: run_litmus(test, RAMemoryModel(), SearchPlan(strategy=s)).reachable
        for s in ("bfs", "dfs")
    }
    assert len(set(verdicts.values())) == 1, verdicts


def test_event_pickle_drops_cached_hash():
    """A cached Event hash is salted per process (PYTHONHASHSEED) and
    must never survive pickling into another process."""
    import pickle

    from repro.c11.events import init_write

    e = init_write("x", 0, -1)
    hash(e)  # populate the cache
    assert "_hash" in e.__dict__
    clone = pickle.loads(pickle.dumps(e))
    assert "_hash" not in clone.__dict__
    assert clone == e and hash(clone) == hash(e)  # same process: equal


# ----------------------------------------------------------------------
# Canonical-key memoization
# ----------------------------------------------------------------------


def test_same_state_object_is_keyed_exactly_once(monkeypatch):
    """The memoization layer must compute each state object's canonical
    key at most once per process — `reachable_states` keys every visited
    state twice (dedup + recording hook), and before the cache that was
    two full canonicalisations."""
    computed = {}
    alive = []  # keep states alive so id() values are never reused
    real = canon.canonical_key

    def counting(state):
        alive.append(state)
        computed[id(state)] = computed.get(id(state), 0) + 1
        return real(state)

    monkeypatch.setattr(canon, "canonical_key", counting)
    hits_before = KEY_CACHE.hits
    states, result = reachable_states(sb_program(), SB_INIT, RAMemoryModel())
    assert computed, "instrumentation saw no keyings"
    assert max(computed.values()) == 1, "a state object was keyed twice"
    # The recording hook re-keys every visited configuration's state;
    # each of those re-keyings must be a cache hit.
    assert KEY_CACHE.hits - hits_before >= result.configs


def test_stats_record_key_cache_behaviour():
    result = explore(sb_program(), SB_INIT, RAMemoryModel())
    stats = result.stats
    # Every discovered successor object is keyed once (a miss); τ-steps
    # share their parent's state object, so re-keying them hits.
    assert stats.key_misses > 0
    assert stats.key_hits + stats.key_misses >= result.transitions
    assert 0.0 <= stats.key_rate <= 1.0


def test_reachable_states_hits_cache():
    hits0, misses0, _ = KEY_CACHE.snapshot()
    states, result = reachable_states(sb_program(), SB_INIT, RAMemoryModel())
    hits1, misses1, _ = KEY_CACHE.snapshot()
    assert hits1 - hits0 >= result.configs
    assert len(states) == result.configs  # RA: distinct state per config key


def test_incremental_ids_match_fresh_computation():
    """Propagated `_canon_ids` must agree with a from-scratch keying."""
    visited = []
    explore(
        sb_program(), SB_INIT, RAMemoryModel(),
        check_config=lambda config: visited.append(config) or [],
    )
    for config in visited:
        state = config.state
        propagated = state._canon_key
        state._canon_key = None
        state._canon_ids = None
        assert canonical_key(state) == propagated


# ----------------------------------------------------------------------
# Canonical-key invariance under interleaving (property test)
# ----------------------------------------------------------------------


def _assert_isomorphic(s1, s2):
    """Equal canonical keys must mean an actual tag-renaming isomorphism
    on (events, rf, mo) — checked by building the bijection explicitly."""
    ids1 = canon._event_ids(s1)
    ids2 = canon._event_ids(s2)
    assert set(ids1.values()) == set(ids2.values())
    by_id2 = {v: k for k, v in ids2.items()}
    mapping = {e: by_id2[ids1[e]] for e in s1.events}
    for e, f in mapping.items():
        assert e.action.kind == f.action.kind
        assert e.var == f.var and e.rdval == f.rdval and e.wrval == f.wrval
        assert e.tid == f.tid
    rf1 = {(mapping[a], mapping[b]) for a, b in s1.rf.pairs}
    mo1 = {(mapping[a], mapping[b]) for a, b in s1.mo.pairs}
    assert rf1 == set(s2.rf.pairs)
    assert mo1 == set(s2.mo.pairs)


@pytest.mark.parametrize(
    "program,init",
    [
        (sb_program(), SB_INIT),
        (mp_program(), {"d": 0, "f": 0, "r1": 0, "r2": 0}),
    ],
    ids=["SB", "MP"],
)
def test_canonical_key_invariant_under_interleaving(program, init):
    """Explore with raw-state dedup (canonicalize=False) so different
    interleavings of the same logical state survive as distinct configs,
    then check every pair that shares a canonical key is genuinely
    isomorphic up to tag renaming."""
    visited = []
    result = explore(
        program, init, RAMemoryModel(), canonicalize=False,
        check_config=lambda config: visited.append(config) or [],
    )
    groups = {}
    for config in visited:
        groups.setdefault(
            (config.program, canonical_key(config.state)), []
        ).append(config.state)
    collided = [members for members in groups.values() if len(members) > 1]
    assert collided, "no tag-renamed duplicates found — test lost its teeth"
    for members in collided:
        for other in members[1:]:
            _assert_isomorphic(members[0], other)
    # And canonicalisation really is a compression of the raw space.
    canonical = explore(program, init, RAMemoryModel())
    assert canonical.configs == len(groups)
    assert canonical.configs < result.configs


# ----------------------------------------------------------------------
# Engine statistics
# ----------------------------------------------------------------------


def test_stats_track_frontier_and_phases():
    result = explore(sb_program(), SB_INIT, RAMemoryModel())
    stats = result.stats
    assert stats.strategy == "bfs"
    assert stats.peak_frontier >= 1
    assert stats.time_total > 0.0
    assert (
        stats.time_expand + stats.time_keys + stats.time_store
        + stats.time_checks <= stats.time_total
    )
    assert stats.time_store > 0.0


def test_stats_record_measured_peak_rss():
    """A run ends with the process's measured peak resident set, which
    merges as a high-water mark and travels through ``counters()``."""
    import resource

    stats = explore(sb_program(), SB_INIT, RAMemoryModel()).stats
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert 0 < stats.peak_rss_kb <= peak
    assert stats.counters()["peak_rss_kb"] == stats.peak_rss_kb
    assert f"peak-rss={stats.peak_rss_kb / 1024:.1f}MB" in stats.summary()
    merged = EngineStats(peak_rss_kb=10).merge(EngineStats(peak_rss_kb=7))
    assert merged.peak_rss_kb == 10


def test_peak_rss_is_zero_without_the_resource_module(monkeypatch):
    import repro.engine.stats as stats_module

    monkeypatch.setattr(stats_module, "resource", None)
    assert stats_module.peak_rss_kb() == 0
    assert explore(sb_program(), SB_INIT, RAMemoryModel()).stats.peak_rss_kb == 0


def test_stats_summary_is_printable():
    line = EngineStats(strategy="dfs", peak_frontier=7).summary()
    assert "dfs" in line and "peak-frontier=7" in line
    populated = explore(sb_program(), SB_INIT, RAMemoryModel()).stats.summary()
    assert "key-cache" in populated
